// At-most-once oracle: an external checker for RPC execution semantics under
// fault campaigns.
//
// The oracle tags every request with a unique call id, records server-side
// executions (with the server's boot id at execution time) and client-side
// outcomes, and asserts, under ANY fault plan, that
//   * no call id is executed twice within one server boot (CHANNEL's
//     duplicate suppression holds),
//   * every completed reply echoes its own request (no cross-wiring), and
//   * every issued call reaches a recorded outcome -- reply or surfaced
//     failure -- never silence.
// Re-execution across a server reboot is counted separately: at-most-once
// state is in-memory by design (the paper's Sprite algorithm), so a crashed
// server that lost its duplicate filter MAY re-execute -- the oracle reports
// it, and pure-crash plans (no message loss) must still show zero.
//
// Thread-safety: recording methods take a mutex, so one oracle may be read
// and written from more than one host thread (bench_suite runs jobs on a
// thread pool). All bookkeeping is content-addressed by call id, so totals
// are deterministic regardless of recording order.

#ifndef XK_SRC_APP_ORACLE_H_
#define XK_SRC_APP_ORACLE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/app/anchor.h"
#include "src/core/message.h"

namespace xk {

class AmoOracle {
 public:
  static constexpr size_t kIdBytes = 8;

  // Allocates the next call id (client side; ids start at 1).
  uint64_t NextCallId() { return ++last_id_; }

  // Builds a request: 8-byte big-endian call id followed by `payload_bytes`
  // of an id-derived pattern (so corrupted or cross-wired replies are
  // detectable byte-for-byte).
  static Message MakeRequest(uint64_t id, size_t payload_bytes);

  // Reads the call id out of a request or echoed reply; 0 if too short.
  static uint64_t ExtractId(const Message& msg);

  // An RpcServer handler that echoes the request and records its execution
  // under `server_kernel`'s CURRENT boot id (read at execution time, so the
  // same oracle spans crash/restart cycles -- install it again from the
  // restart hook).
  RpcServer::Handler WrapEcho(Kernel* server_kernel);

  // Client side: a call was issued / reached its outcome.
  void RecordIssued(uint64_t id, SimTime at);
  void RecordOutcome(uint64_t id, const Result<Message>& r, SimTime at);

  // Client side: a hedged second attempt went out for `id`. A hedged id
  // executing on TWO DIFFERENT hosts is the intended race, reported in
  // hedged_duplicate_executions instead of flagged; the same id twice on one
  // host in one boot stays a violation.
  void RecordHedged(uint64_t id);

  struct Report {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;       // surfaced errors (retry exhaustion, resets)
    uint64_t executions = 0;   // total server-side executions
    uint64_t double_executions = 0;        // same id twice in ONE boot: violation
    uint64_t cross_boot_reexecutions = 0;  // re-executed after a reboot: reported
    uint64_t mismatched_replies = 0;  // reply does not echo its request: violation
    uint64_t unknown_replies = 0;     // reply id never issued: violation
    uint64_t silent = 0;              // issued, no outcome ever: violation
    // Overload-control outcome classes (each also counted in `failed`):
    uint64_t shed = 0;              // DEADLINE_EXCEEDED: expired client- or server-side
    uint64_t rejected = 0;          // BUSY: admission control / caps fast-rejected
    uint64_t budget_exhausted = 0;  // RESOURCE_EXHAUSTED: retry budget drained
    // Calls the system accepted for execution (issued - shed - rejected) and
    // how many of those completed, per million -- the graceful-degradation
    // headline: under overload this should stay ~1e6 while shed/rejected grow.
    uint64_t admitted = 0;
    uint64_t admitted_success_ppm = 0;
    uint64_t hedged = 0;  // ids that issued a second attempt
    uint64_t hedged_duplicate_executions = 0;  // hedged id ran on 2 hosts: reported

    // True iff at-most-once semantics held and no failure was silent.
    bool clean() const {
      return double_executions == 0 && mismatched_replies == 0 && unknown_replies == 0 &&
             silent == 0;
    }
  };

  // Computes the report. Call after the simulation has quiesced (RunAll
  // returned): only then can "no outcome" be judged silent.
  Report Finish() const;

 private:
  struct CallRecord {
    bool issued = false;
    bool completed = false;
    bool failed = false;
    bool mismatched = false;
    bool hedged = false;
    StatusCode fail_code = StatusCode::kOk;  // classifies `failed`
    // (host, boot id) at each execution; the host lets a hedged id's
    // two-replica race be told apart from a same-server duplicate.
    std::vector<std::pair<const Kernel*, uint32_t>> executed;
  };

  mutable std::mutex mu_;
  uint64_t last_id_ = 0;
  std::map<uint64_t, CallRecord> calls_;
  uint64_t unknown_replies_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_APP_ORACLE_H_
