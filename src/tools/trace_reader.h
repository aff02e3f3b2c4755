// Reader + analyzer for the trace JSONL emitted by TraceSink (src/trace).
//
// Header-only and std-only so both the xktrace CLI and the tests can consume
// traces without linking anything beyond the standard library. The parser
// handles exactly the shape TraceSink writes: one flat JSON object per line
// whose values are either quoted strings or decimal integers. It makes one
// pass over the buffer and allocates nothing per line beyond the records it
// keeps: keys are matched in place to fixed field slots, and a string is
// copied aside only when it holds an escape.

#ifndef XK_SRC_TOOLS_TRACE_READER_H_
#define XK_SRC_TOOLS_TRACE_READER_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace xk::tracetool {

// One layer-crossing span: a Push/Pop/Demux/Open/Intr on `proto` at `host`.
struct SpanRec {
  std::string host;
  std::string proto;
  std::string op;
  std::string status;
  uint64_t sess = 0;   // session trace id (0 = none)
  uint64_t msg = 0;    // message trace id (0 = none)
  uint64_t len = 0;    // message length at entry
  int64_t t0 = 0;      // sim ns at entry
  int64_t t1 = 0;      // sim ns at exit
  int64_t incl = 0;    // charged cost inside the span, children included
  int64_t excl = 0;    // charged cost minus child spans
  uint64_t depth = 0;  // nesting depth at entry (0 = outermost)
};

// One frame transmission on a segment.
struct WireRec {
  int64_t seg = 0;
  int64_t t0 = 0;      // tx start
  int64_t t1 = 0;      // tx end (bus released)
  int64_t arrive = 0;  // delivery time at receivers
  uint64_t len = 0;    // frame bytes
  uint64_t qdepth = 0; // frames waiting behind the bus at tx start
  int64_t qwait = 0;   // ns this frame waited for the bus
  uint64_t msg = 0;    // trace id of the carried message (0 = untracked)
};

// One point event: a cluster-tier decision (issue/done/exec, retransmit,
// reroute, replica down/readmit, eviction, router forward) bound to an
// oracle call id and/or message trace id.
struct EventRec {
  std::string host;
  std::string proto;
  std::string op;
  std::string status;
  int64_t t = 0;
  uint64_t call = 0;    // oracle call id (0 = not call-bound)
  uint64_t msg = 0;     // message trace id (0 = none)
  uint64_t sess = 0;    // session trace id (0 = none)
  uint64_t detail = 0;  // op-specific: retry #, replica idx, ttl, idle ns...
};

// One structured log record (from Kernel::Tracef).
struct LogRec {
  std::string host;
  std::string text;
  int64_t t = 0;
  int64_t level = 0;
};

struct TraceFile {
  std::vector<SpanRec> spans;
  std::vector<WireRec> wires;
  std::vector<LogRec> logs;
  std::vector<EventRec> events;
  uint64_t dropped = 0;  // records the sink discarded at capacity
};

namespace detail {

// The fields a trace line can carry, one slot per key. Kinds that share a key
// ("t0", "msg", "len", ...) share its slot. Slots below kNumStr take string
// values, the rest integers; a value of the other type reads as absent.
enum Slot : int {
  kKind, kHost, kProto, kOp, kStatus, kText, kNumStr,
  kSess = kNumStr, kMsg, kLen, kT0, kT1, kIncl, kExcl, kDepth, kSeg, kArrive, kQd, kQw,
  kT, kCall, kDetail, kLevel, kDropped, kNumSlots,
  kNoSlot = -1,
};

inline Slot SlotOf(std::string_view k) {
  switch (k.size()) {
    case 1:
      return k[0] == 'k' ? kKind : k[0] == 't' ? kT : kNoSlot;
    case 2:
      switch (k[0]) {
        case 'o': return k == "op" ? kOp : kNoSlot;
        case 't': return k[1] == '0' ? kT0 : k[1] == '1' ? kT1 : kNoSlot;
        case 'q': return k[1] == 'd' ? kQd : k[1] == 'w' ? kQw : kNoSlot;
      }
      return kNoSlot;
    case 3:
      switch (k[0]) {
        case 'm': return k == "msg" ? kMsg : kNoSlot;
        case 'l': return k == "len" ? kLen : kNoSlot;
        case 's': return k == "seg" ? kSeg : kNoSlot;
      }
      return kNoSlot;
    case 4:
      switch (k[0]) {
        case 'h': return k == "host" ? kHost : kNoSlot;
        case 's': return k == "sess" ? kSess : kNoSlot;
        case 'i': return k == "incl" ? kIncl : kNoSlot;
        case 'e': return k == "excl" ? kExcl : kNoSlot;
        case 'c': return k == "call" ? kCall : kNoSlot;
        case 't': return k == "text" ? kText : kNoSlot;
      }
      return kNoSlot;
    case 5:
      switch (k[0]) {
        case 'p': return k == "proto" ? kProto : kNoSlot;
        case 'd': return k == "depth" ? kDepth : kNoSlot;
        case 'l': return k == "level" ? kLevel : kNoSlot;
      }
      return kNoSlot;
    case 6:
      switch (k[0]) {
        case 's': return k == "status" ? kStatus : kNoSlot;
        case 'a': return k == "arrive" ? kArrive : kNoSlot;
        case 'd': return k == "detail" ? kDetail : kNoSlot;
      }
      return kNoSlot;
    case 7:
      return k == "dropped" ? kDropped : kNoSlot;
  }
  return kNoSlot;
}

// One parsed line. String values are views into the line, or into `scratch`
// when they held escapes; the buffers are reused line after line.
struct Line {
  uint32_t seen = 0;  // bit per slot: first occurrence already taken
  std::string_view str[kNumStr];
  int64_t num[kNumSlots] = {};
  std::string scratch[kNumStr + 1];  // the last one decodes keys and skipped values

  std::string_view s(Slot i) const { return (seen >> i & 1) != 0 ? str[i] : std::string_view(); }
  int64_t n(Slot i) const { return (seen >> i & 1) != 0 ? num[i] : 0; }
  uint64_t u(Slot i) const { return static_cast<uint64_t>(n(i)); }
};

// Scans the quoted string at `p` (which points at its opening quote) and
// returns the position past the closing quote, or nullptr if it is malformed.
inline const char* ScanString(const char* p, const char* end, std::string_view* out,
                              std::string* scratch) {
  const char* start = ++p;
  while (p < end && *p != '"' && *p != '\\') {
    ++p;
  }
  if (p < end && *p == '"') {
    *out = std::string_view(start, static_cast<size_t>(p - start));
    return p + 1;
  }
  scratch->assign(start, p);
  while (p < end) {
    const char c = *p++;
    if (c == '"') {
      *out = *scratch;
      return p;
    }
    if (c != '\\') {
      *scratch += c;
      continue;
    }
    if (p >= end) {
      return nullptr;
    }
    switch (*p++) {
      case '"': *scratch += '"'; break;
      case '\\': *scratch += '\\'; break;
      case '/': *scratch += '/'; break;
      case 'n': *scratch += '\n'; break;
      case 'r': *scratch += '\r'; break;
      case 't': *scratch += '\t'; break;
      case 'u': {
        if (end - p < 4) {
          return nullptr;
        }
        unsigned v = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = *p++;
          v <<= 4;
          if (h >= '0' && h <= '9') {
            v |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            v |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            v |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return nullptr;
          }
        }
        *scratch += static_cast<char>(v);  // the writer only emits \u00xx
        break;
      }
      default:
        return nullptr;
    }
  }
  return nullptr;
}

// Parses the flat object in [p, end): `{"key":value,...}` with no whitespace
// but before the brace, commas optional between fields, anything after the
// closing brace ignored, and each value a quoted string or a decimal integer
// (wrapping mod 2^64). False on anything else.
inline bool ParseLine(const char* p, const char* end, Line& line) {
  line.seen = 0;
  while (p < end && (*p == ' ' || *p == '\t')) {
    ++p;
  }
  if (p >= end || *p != '{') {
    return false;
  }
  ++p;
  std::string* const skip = &line.scratch[kNumStr];
  std::string_view key;
  while (p < end) {
    if (*p == '}') {
      return true;
    }
    if (*p == ',') {
      ++p;
      continue;
    }
    if (*p != '"' || (p = ScanString(p, end, &key, skip)) == nullptr) {
      return false;
    }
    if (p >= end || *p != ':') {
      return false;
    }
    ++p;
    const Slot slot = SlotOf(key);
    const bool open_slot = slot != kNoSlot && (line.seen >> slot & 1) == 0;
    if (p < end && *p == '"') {
      const bool take = open_slot && slot < kNumStr;
      std::string_view v;
      if ((p = ScanString(p, end, &v, take ? &line.scratch[slot] : skip)) == nullptr) {
        return false;
      }
      if (take) {
        line.str[slot] = v;
        line.seen |= 1u << slot;
      }
      continue;
    }
    const bool neg = p < end && *p == '-';
    p += neg ? 1 : 0;
    if (p >= end || *p < '0' || *p > '9') {
      return false;
    }
    uint64_t v = 0;
    while (p < end && *p >= '0' && *p <= '9') {
      v = v * 10 + static_cast<uint64_t>(*p++ - '0');
    }
    if (open_slot && slot >= kNumStr) {
      line.num[slot] = static_cast<int64_t>(neg ? 0 - v : v);
      line.seen |= 1u << slot;
    }
  }
  return false;
}

}  // namespace detail

// Parses a whole JSONL trace in one pass. Unknown record kinds and malformed
// lines are skipped so newer writers stay readable. Within a line the first
// occurrence of a key wins, a value of the wrong type reads as absent, and
// "k" may come anywhere.
inline TraceFile Parse(std::string_view text) {
  using namespace detail;
  TraceFile tf;
  Line f;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(std::memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* const eol = nl != nullptr ? nl : end;
    const bool ok = ParseLine(p, eol, f);
    p = nl != nullptr ? nl + 1 : end;
    if (!ok) {
      continue;
    }
    const std::string_view kind = f.s(kKind);
    if (kind == "span") {
      SpanRec& r = tf.spans.emplace_back();
      r.host = f.s(kHost);
      r.proto = f.s(kProto);
      r.op = f.s(kOp);
      r.status = f.s(kStatus);
      r.sess = f.u(kSess);
      r.msg = f.u(kMsg);
      r.len = f.u(kLen);
      r.t0 = f.n(kT0);
      r.t1 = f.n(kT1);
      r.incl = f.n(kIncl);
      r.excl = f.n(kExcl);
      r.depth = f.u(kDepth);
    } else if (kind == "wire") {
      WireRec& r = tf.wires.emplace_back();
      r.seg = f.n(kSeg);
      r.t0 = f.n(kT0);
      r.t1 = f.n(kT1);
      r.arrive = f.n(kArrive);
      r.len = f.u(kLen);
      r.qdepth = f.u(kQd);
      r.qwait = f.n(kQw);
      r.msg = f.u(kMsg);
    } else if (kind == "ev") {
      EventRec& r = tf.events.emplace_back();
      r.host = f.s(kHost);
      r.proto = f.s(kProto);
      r.op = f.s(kOp);
      r.status = f.s(kStatus);
      r.t = f.n(kT);
      r.call = f.u(kCall);
      r.msg = f.u(kMsg);
      r.sess = f.u(kSess);
      r.detail = f.u(kDetail);
    } else if (kind == "log") {
      LogRec& r = tf.logs.emplace_back();
      r.host = f.s(kHost);
      r.text = f.s(kText);
      r.t = f.n(kT);
      r.level = f.n(kLevel);
    } else if (kind == "meta") {
      tf.dropped += f.u(kDropped);
    }
  }
  return tf;
}

// Reads and parses a trace file; empty TraceFile on I/O error.
inline TraceFile Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return {};
  }
  // One read sized to the file; a pipe or other unsized input is read to EOF.
  std::string text;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    text.resize(size > 0 ? static_cast<size_t>(size) : 0);
    std::rewind(f);
  }
  text.resize(std::fread(text.data(), 1, text.size(), f));
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return Parse(text);
}

// Aggregated exclusive cost of one (host, protocol, op) layer crossing.
struct LayerStat {
  std::string host;
  std::string proto;
  std::string op;
  uint64_t count = 0;
  int64_t excl_total = 0;  // ns
};

// Aggregated wire activity on one Ethernet segment.
struct SegmentStat {
  int64_t seg = 0;
  uint64_t frames = 0;
  uint64_t bytes = 0;
  int64_t busy = 0;           // ns the bus was transmitting
  uint64_t queued = 0;        // frames that waited (qwait > 0)
  uint64_t peak_depth = 0;    // max queue depth observed at any tx start
  uint64_t depth_sum = 0;     // sum of per-frame queue depths (for the mean)
  int64_t wait_total = 0;     // ns, sum of per-frame bus waits
  int64_t wait_max = 0;       // ns, worst single-frame bus wait
};

// Per-router forwarding activity, aggregated from IP's point events.
struct RouterStat {
  std::string host;
  uint64_t forwards = 0;
  uint64_t ttl_drops = 0;
  uint64_t no_route_drops = 0;
};

// Per-layer breakdown plus a per-call latency estimate built from the trace.
//
// The estimate is timestamp-based: the elapsed simulated time from the first
// observed record to the last, divided by the call count. For a serial
// latency workload this is exactly what the benchmark reports, because the
// clock advances only through the charged costs and wire delays the trace
// records. The cpu/wire/propagation totals decompose where that time went --
// their sum can exceed the elapsed time when CPU work overlaps an in-flight
// frame (e.g. CHANNEL arming its retransmit timer while the request is on
// the wire).
//
// Calls are inferred as the minimum push-span count over (host, protocol)
// pairs -- every layer pushes at least once per call, and retransmitting
// layers push more, so the minimum is the call count.
struct Breakdown {
  std::vector<LayerStat> layers;     // sorted by (host, proto, op)
  std::vector<SegmentStat> segments; // sorted by segment id
  std::vector<RouterStat> routers;   // sorted by host; hosts that forwarded or dropped
  uint64_t calls = 1;
  int64_t cpu_total = 0;   // ns, sum of span exclusive costs
  int64_t wire_total = 0;  // ns, sum of frame transmission times
  int64_t prop_total = 0;  // ns, sum of propagation delays
  int64_t t_min = 0;       // ns, earliest record timestamp
  int64_t t_max = 0;       // ns, latest record timestamp
  int64_t elapsed() const { return t_max - t_min; }

  double PerCallUsec() const {
    return static_cast<double>(elapsed()) /
           (1000.0 * static_cast<double>(calls == 0 ? 1 : calls));
  }
};

inline Breakdown Analyze(const TraceFile& tf, uint64_t forced_calls = 0) {
  Breakdown b;
  std::map<std::tuple<std::string, std::string, std::string>, LayerStat> layers;
  std::map<std::pair<std::string, std::string>, uint64_t> pushes;
  bool have_t = false;
  auto see = [&](int64_t t0, int64_t t1) {
    if (!have_t) {
      b.t_min = t0;
      b.t_max = t1;
      have_t = true;
      return;
    }
    b.t_min = std::min(b.t_min, t0);
    b.t_max = std::max(b.t_max, t1);
  };
  for (const SpanRec& s : tf.spans) {
    LayerStat& st = layers[{s.host, s.proto, s.op}];
    if (st.count == 0) {
      st.host = s.host;
      st.proto = s.proto;
      st.op = s.op;
    }
    ++st.count;
    st.excl_total += s.excl;
    b.cpu_total += s.excl;
    see(s.t0, s.t1);
    if (s.op == "push") {
      ++pushes[{s.host, s.proto}];
    }
  }
  std::map<int64_t, SegmentStat> segs;
  for (const WireRec& w : tf.wires) {
    b.wire_total += w.t1 - w.t0;
    b.prop_total += w.arrive - w.t1;
    see(w.t0, w.arrive);
    SegmentStat& sg = segs[w.seg];
    sg.seg = w.seg;
    ++sg.frames;
    sg.bytes += w.len;
    sg.busy += w.t1 - w.t0;
    if (w.qwait > 0) {
      ++sg.queued;
    }
    sg.depth_sum += w.qdepth;
    sg.peak_depth = std::max(sg.peak_depth, w.qdepth);
    sg.wait_total += w.qwait;
    sg.wait_max = std::max(sg.wait_max, w.qwait);
  }
  b.segments.reserve(segs.size());
  for (auto& [id, sg] : segs) {
    b.segments.push_back(sg);
  }
  std::map<std::string, RouterStat> routers;
  for (const EventRec& e : tf.events) {
    if (e.op != "forward" && e.op != "ttl_drop" && e.op != "no_route") {
      continue;
    }
    RouterStat& rt = routers[e.host];
    rt.host = e.host;
    if (e.op == "forward") {
      ++rt.forwards;
    } else if (e.op == "ttl_drop") {
      ++rt.ttl_drops;
    } else {
      ++rt.no_route_drops;
    }
  }
  b.routers.reserve(routers.size());
  for (auto& [host, rt] : routers) {
    b.routers.push_back(std::move(rt));
  }
  b.layers.reserve(layers.size());
  for (auto& [key, st] : layers) {
    b.layers.push_back(std::move(st));
  }
  if (forced_calls > 0) {
    b.calls = forced_calls;
  } else {
    uint64_t min_pushes = 0;
    for (const auto& [key, n] : pushes) {
      if (n > 0 && (min_pushes == 0 || n < min_pushes)) {
        min_pushes = n;
      }
    }
    b.calls = min_pushes > 0 ? min_pushes : 1;
  }
  return b;
}

}  // namespace xk::tracetool

#endif  // XK_SRC_TOOLS_TRACE_READER_H_
