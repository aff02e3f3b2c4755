#!/usr/bin/env bash
# Full pre-merge check: the regular build + test suite, then an
# ASan+UBSan-instrumented build of the same tests as a memory-safety smoke,
# a trace capture -> analyze smoke, a failed-write negative case, a short run
# of each host-time benchmark workload, observability and report
# determinism diffs across worker thread counts, xkflow's on-disk trace
# reading checked against the in-memory flow files, the regression, chaos,
# datacenter, overload and soak gates, and a TSan pass over bench_suite's
# job pool (its only concurrency).
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 tests only
#
# Sanitizer builds live in build-asan/ and build-tsan/ so they never pollute
# the primary build/ tree.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "== tier-1: build + ctest (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

if [[ "${1:-}" == "--fast" ]]; then
  exit 0
fi

echo
echo "== sanitizer smoke: ASan+UBSan build + ctest (build-asan/) =="
cmake -B build-asan -S . -DXK_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$jobs"
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo
echo "== sanitizer smoke: bench_suite under ASan+UBSan =="
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ./build-asan/bench/bench_suite --threads=2 --out=/dev/null

echo
echo "== observability smoke: capture -> analyze =="
obs=$(mktemp -d)
trap 'rm -rf "$obs"' EXIT
# Table III's depth sweep, traced and captured per job, then analyzed: the
# per-layer breakdown of one trace, and the layer deltas re-derived from the
# three depth traces alone (paper: FRAGMENT +0.21 ms, CHANNEL +0.49 ms).
./build/bench/bench_suite --filter='^table3_layer_costs\.' --stable --out="$obs/t3.json" \
  --trace="$obs/t3trace" --pcap="$obs/t3pcap" >/dev/null
t3=()  # the depth sweep's traces, shallowest first
for d in VIP FRAGMENT-VIP CHANNEL-FRAGMENT-VIP; do
  t3+=("$obs/t3trace/table3_layer_costs.$d.trace.jsonl")
  [[ -s "${t3[-1]}" && -s "$obs/t3pcap/table3_layer_costs.$d.pcap.jsonl" ]]
done
./build/src/xktrace "${t3[-1]}" > "$obs/t3.breakdown.txt"
[[ -s "$obs/t3.breakdown.txt" ]]
grep -q "per-call" "$obs/t3.breakdown.txt"
./build/src/xktrace --layer-costs "${t3[@]}" > "$obs/t3.layers.txt"
awk '$1 ~ /\.FRAGMENT-VIP\.trace/ { f = $4 } $1 ~ /-FRAGMENT-VIP\.trace/ { c = $4 }
     END {
       if (!(f > 157 && f < 263 && c > 367 && c < 613)) {
         printf "FAIL: xktrace layer deltas FRAGMENT %s us, CHANNEL %s us\n", f, c; exit 1;
       }
       printf "xktrace layer deltas: FRAGMENT +%s us, CHANNEL +%s us\n", f, c;
     }' "$obs/t3.layers.txt"

echo
echo "== artifact writes: a failed write fails the run =="
# A --trace= directory below a regular file can be neither created nor
# written: bench_suite must name the lost path on stderr and exit non-zero.
touch "$obs/regular-file"
if ./build/bench/bench_suite --filter='^table3_layer_costs\.VIP$' --stable \
    --out="$obs/wf.json" --trace="$obs/regular-file/traces" >/dev/null 2>"$obs/wf.err"; then
  echo "FAIL: bench_suite exited 0 with an unwritable --trace= directory"
  exit 1
fi
grep -q "regular-file/traces/table3_layer_costs.VIP.trace.jsonl" "$obs/wf.err" \
  || { echo "FAIL: bench_suite did not name the unwritten trace"; cat "$obs/wf.err"; exit 1; }
echo "negative test: unwritable --trace= path named and rejected"

echo
echo "== host-time benchmark smoke: perfbench builds and runs =="
# perfbench/ builds the simulator libraries through its own CMakeLists.txt,
# so a src/ API change can break it while build/ stays green. One short run
# of each workload BENCHMARK.json lists; run.py exits non-zero on a build
# error or a failed output check.
for w in pair-null datacenter sessions; do
  CARGO_TARGET_DIR="$obs/perfbench" python3 perfbench/run.py \
    --workload "$w" --seed 1 --seconds 1 --trace 0 >/dev/null
done

echo
echo "== observability determinism: bench_suite bit-identical at 1/2/4 threads =="
# --stable omits the host-time fields (the only run-to-run variation), so the
# whole results file -- simulated metrics, percentiles, per-segment stats --
# plus traces, captures, and sampled time series must be byte-identical
# across worker thread counts, no normalization needed.
for t in 1 2 4; do
  ./build/bench/bench_suite --threads="$t" --stable --out="$obs/r$t.json" \
    --trace="$obs/trace$t" --pcap="$obs/pcap$t" --stats="$obs/stats$t" \
    --flow="$obs/flow$t" >"$obs/report$t.txt"
done
cmp "$obs/r1.json" "$obs/r2.json"
cmp "$obs/r1.json" "$obs/r4.json"
# Zero observer effect: an unobserved run reports the same simulated metrics.
./build/bench/bench_suite --threads=4 --stable --out="$obs/plain.json" >"$obs/report_plain.txt"
cmp "$obs/r1.json" "$obs/plain.json"
# The same for the paper-vs-measured report on stdout, once the wall-clock
# summary line is dropped.
grep -q "Table III: Cost of Individual RPC Layers" "$obs/report1.txt"
for r in report2 report4 report_plain; do
  diff <(grep -v '^bench_suite: ' "$obs/report1.txt") <(grep -v '^bench_suite: ' "$obs/$r.txt")
done
diff -r "$obs/trace1" "$obs/trace2"
diff -r "$obs/trace1" "$obs/trace4"
diff -r "$obs/pcap1" "$obs/pcap2"
diff -r "$obs/pcap1" "$obs/pcap4"
diff -r "$obs/stats1" "$obs/stats2"
diff -r "$obs/stats1" "$obs/stats4"
diff -r "$obs/flow1" "$obs/flow2"
diff -r "$obs/flow1" "$obs/flow4"

echo
echo "== xkflow from disk: Load + Stitch of each trace reproduces its flow files =="
# bench_suite stitched the flow files from the serialized trace in memory
# (Parse); xkflow reads the written trace back from disk (Load). Both paths
# must agree byte for byte, for every job's trace.
flows=("$obs"/flow1/*.flow.jsonl)
checked=0
for f in "${flows[@]}"; do
  stem=$(basename "$f" .flow.jsonl)
  t="$obs/trace1/$stem.trace.jsonl"
  ./build/src/xkflow "$t" --flow >"$obs/disk.flow.jsonl"
  cmp "$obs/disk.flow.jsonl" "$f"
  ./build/src/xkflow "$t" --folded >"$obs/disk.folded.txt"
  cmp "$obs/disk.folded.txt" "$obs/flow1/$stem.folded.txt"
  checked=$((checked + 1))
done
[[ $checked -gt 0 && $checked -eq ${#flows[@]} ]] ||
  { echo "FAIL: checked $checked of ${#flows[@]} flow files"; exit 1; }
echo "xkflow --flow/--folded match bench_suite's flow files for $checked traces"

echo
echo "== xkflow smoke: critical-path attribution reconstructs the bench RTT =="
# Stitch the sat-knee trace into per-call causal graphs and insist the mean
# of the reconstructed RTTs matches the benchmark's own histogram mean within
# 1% (the attribution partitions each call's [issue, done] exactly, so the
# agreement is exact in practice -- 1% is the ISSUE acceptance bound).
./build/src/xkflow "$obs/trace1/datacenter.sat-knee.trace.jsonl" > "$obs/knee.flow.txt"
grep -q "aggregate attribution" "$obs/knee.flow.txt"
flow_ms=$(./build/src/xkflow "$obs/trace1/datacenter.sat-knee.trace.jsonl" \
  --critical-path --json | sed -E 's/.*"mean_rtt_ms":([0-9.eE+-]+).*/\1/')
bench_ms=$(grep '"name": "sat-knee"' "$obs/r1.json" \
  | sed -E 's/.*"mean_ms": ([0-9.eE+-]+).*/\1/')
awk -v f="$flow_ms" -v b="$bench_ms" 'BEGIN {
  d = f > b ? f - b : b - f;
  if (b <= 0 || d > 0.01 * b) {
    printf "FAIL: xkflow mean rtt %.6f ms vs bench %.6f ms\n", f, b; exit 1;
  }
  printf "xkflow rtt %.6f ms vs bench %.6f ms (|delta| %.6f)\n", f, b, d;
}'
# The replica-crash campaign reads as a causal story: the crash, the VPOOL
# down/readmit cycle, and cause-attributed retransmissions all surface.
./build/src/xkflow "$obs/trace1/datacenter.replica-crash-failover.trace.jsonl" \
  --critical-path > "$obs/crash.flow.txt"
grep -q "crash" "$obs/crash.flow.txt"
grep -Eq "retransmits: [1-9]" "$obs/crash.flow.txt"
grep -Eq "replica_down" "$obs/crash.flow.txt"

echo
echo "== bench regression gate: xkbench-diff vs bench/baseline.json =="
# Every simulated metric in the fresh run must sit within the per-metric
# thresholds of the committed baseline (host-dependent fields are skipped).
./build/src/xkbench_diff bench/baseline.json "$obs/r1.json"
# Negative test: an injected latency regression must fail the gate.
sed -E 's/"latency_ms": [0-9.eE+-]+/"latency_ms": 9999/' "$obs/r1.json" \
  > "$obs/tampered.json"
if ./build/src/xkbench_diff --quiet bench/baseline.json "$obs/tampered.json"; then
  echo "FAIL: xkbench-diff accepted an injected latency regression"
  exit 1
fi
echo "negative test: injected latency regression correctly rejected"

echo
echo "== chaos campaigns: oracle-clean crash/recovery =="
# The scheduled mid-workload server crash must recover (boot_resets = 1) with
# the at-most-once oracle reporting zero double executions and zero silent
# failures. Byte-identity of the chaos jobs across worker threads is already
# enforced by the r* cmp gates above, which include them.
crash_line=$(grep '"name": "server-crash"' "$obs/r1.json")
echo "$crash_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: chaos.server-crash reported double executions"; exit 1; }
echo "$crash_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: chaos.server-crash reported silent failures"; exit 1; }
echo "$crash_line" | grep -q '"boot_resets": 1' \
  || { echo "FAIL: chaos.server-crash never observed the server reboot"; exit 1; }
# A custom plan from the command line drives the same machinery.
./build/bench/bench_suite \
  --faults='crash:host=server,at=250ms,restart=600ms;drop:seg=0,from=0ms,until=200ms,rate=0.05;seed:5' \
  --filter='^chaos\.custom' --stable --out="$obs/chaos_custom.json" >/dev/null
grep -q '"oracle_double_exec": 0' "$obs/chaos_custom.json"
grep -q '"oracle_silent": 0' "$obs/chaos_custom.json"
echo "server-crash and --faults= campaigns oracle-clean"

echo
echo "== datacenter cluster: round-robin balance + oracle-clean failover =="
# The sub-saturation saturation-sweep job must complete every call with the
# round-robin share spread across the 4 replicas inside 10% (100000 ppm).
sat_line=$(grep '"name": "sat-low"' "$obs/r1.json")
echo "$sat_line" | grep -q '"success_rate_ppm": 1000000' \
  || { echo "FAIL: datacenter.sat-low dropped calls below saturation"; exit 1; }
spread=$(echo "$sat_line" | sed -nE 's/.*"share_spread_ppm": ([0-9]+).*/\1/p')
[ -n "$spread" ] && [ "$spread" -le 100000 ] \
  || { echo "FAIL: datacenter.sat-low replica share spread ${spread:-?} ppm > 10%"; exit 1; }
# The replica-crash job must stay oracle-clean, mark the dead replica down,
# readmit it, and fully recover in the post-restart phase of the timeline.
dc_line=$(grep '"name": "replica-crash-failover"' "$obs/r1.json")
echo "$dc_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: datacenter.replica-crash-failover reported double executions"; exit 1; }
echo "$dc_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: datacenter.replica-crash-failover reported silent failures"; exit 1; }
echo "$dc_line" | grep -Eq '"readmits": [1-9]' \
  || { echo "FAIL: datacenter.replica-crash-failover never readmitted the replica"; exit 1; }
post_ppm=$(echo "$dc_line" | sed -nE 's/.*"post": \{[^}]*"success_ppm": ([0-9]+).*/\1/p')
[ "${post_ppm:-0}" -eq 1000000 ] \
  || { echo "FAIL: post-restart phase success ${post_ppm:-?} ppm != 1000000"; exit 1; }
# A custom arrival process from the command line drives the same machinery.
./build/bench/bench_suite --arrivals='poisson:rate=120,horizon=300ms,seed=3' \
  --filter='^datacenter\.custom' --stable --out="$obs/dc_custom.json" >/dev/null
grep -q '"success_rate_ppm": 1000000' "$obs/dc_custom.json"
grep -q '"oracle_silent": 0' "$obs/dc_custom.json"
echo "saturation balance, replica-crash failover, and --arrivals= campaigns clean"

echo
echo "== overload control: graceful degradation at 2.5x the knee =="
# sat-overload-controlled offers the same 400 cps/client that collapses the
# uncontrolled sat-overload job, but with deadlines + retry budget + caps +
# backlog-bounded admission armed it must sustain >= 85% of the knee's
# goodput, and >= 99% of the calls the system admitted must complete.
knee_good=$(grep '"name": "sat-knee"' "$obs/r1.json" \
  | sed -nE 's/.*"goodput_cps": ([0-9.eE+-]+).*/\1/p')
ctrl_line=$(grep '"name": "sat-overload-controlled"' "$obs/r1.json")
ctrl_good=$(echo "$ctrl_line" | sed -nE 's/.*"goodput_cps": ([0-9.eE+-]+).*/\1/p')
awk -v c="$ctrl_good" -v k="$knee_good" 'BEGIN { exit !(k > 0 && c >= 0.85 * k) }' \
  || { echo "FAIL: controlled goodput ${ctrl_good:-?} cps < 85% of knee ${knee_good:-?}"; \
       exit 1; }
adm_ppm=$(echo "$ctrl_line" \
  | sed -nE 's/.*"oracle_admitted_success_ppm": ([0-9]+).*/\1/p')
[ "${adm_ppm:-0}" -ge 990000 ] \
  || { echo "FAIL: admitted-call success ${adm_ppm:-?} ppm < 990000"; exit 1; }
echo "$ctrl_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: sat-overload-controlled reported double executions"; exit 1; }
echo "$ctrl_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: sat-overload-controlled reported silent failures"; exit 1; }
# Hedged failover across a replica crash: at-most-once must hold even with
# deliberate duplicate attempts in flight (hedged duplicates are reported as
# their own class, never as violations).
hedge_line=$(grep '"name": "hedged-crash-failover"' "$obs/r1.json")
echo "$hedge_line" | grep -Eq '"hedges": [1-9]' \
  || { echo "FAIL: hedged-crash-failover never hedged"; exit 1; }
echo "$hedge_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: hedged-crash-failover reported double executions"; exit 1; }
echo "$hedge_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: hedged-crash-failover reported silent failures"; exit 1; }
echo "controlled goodput ${ctrl_good} cps (knee ${knee_good})," \
     "admitted success ${adm_ppm} ppm, hedged failover oracle-clean"

echo
echo "== session scale: churn soak evicts everything and RSS plateaus =="
# Three open -> drain cycles of 20k sessions each. The sweep timer must
# reclaim every session (live_after = 0, evictions > 0) and the resident set
# after the last drain must sit at the first cycle's plateau -- the slab
# high-water from cycle 1 serves every later cycle, so memory does not grow
# with total sessions ever created. Byte-identity of the simulated fields is
# already enforced by the r* cmp gates above, which include this group;
# this run is deliberately non---stable so the host-side RSS fields exist.
./build/bench/bench_suite --filter='^session_scale\.soak' \
  --out="$obs/ss_soak.json" >/dev/null
soak_line=$(grep '"name": "soak"' "$obs/ss_soak.json")
echo "$soak_line" | grep -Eq '"client_evicted": [1-9]' \
  || { echo "FAIL: session_scale.soak never evicted a session"; exit 1; }
echo "$soak_line" | grep -q '"client_live_after": 0' \
  || { echo "FAIL: session_scale.soak left client sessions live after drain"; exit 1; }
echo "$soak_line" | grep -q '"server_live_after": 0' \
  || { echo "FAIL: session_scale.soak left server sessions live after drain"; exit 1; }
rss_first=$(echo "$soak_line" | sed -nE 's/.*"rss_mb_first_cycle": ([0-9.]+).*/\1/p')
rss_drain=$(echo "$soak_line" | sed -nE 's/.*"rss_mb_after_drain": ([0-9.]+).*/\1/p')
awk -v a="$rss_drain" -v b="$rss_first" 'BEGIN { exit !(b > 0 && a <= b * 1.35) }' \
  || { echo "FAIL: session_scale.soak RSS grew across cycles" \
              "(first=${rss_first:-?} MB, after=${rss_drain:-?} MB)"; exit 1; }
echo "soak: full reclamation, RSS plateau ${rss_first} MB -> ${rss_drain} MB"

echo
echo "== TSan: bench_suite job-pool data-race check (build-tsan/) =="
# Each job runs on one pool thread and shares nothing mutable with the
# others (object pools and observer defaults are thread-local); four workers
# over the many-host, chaos and datacenter groups check that claim.
cmake -B build-tsan -S . -DXK_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs" --target bench_suite
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_suite --threads=4 \
  --filter='^(manyhost|chaos|datacenter)' --out=/dev/null

echo
echo "All checks passed."
