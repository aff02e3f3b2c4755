// The trace JSONL reader (src/tools/trace_reader.h) and the writer helpers it
// reads back (src/trace/json_util.h, TraceSink::ToJsonl).
//
// The reader's contract is defined by a reference model kept here: the
// straightforward per-line parser it replaced, which builds a key/value list
// per line and looks fields up by linear search. Unit cases pin the contract
// (escapes, key order and duplicates, wrong-typed values, malformed lines);
// a differential fuzz test feeds mutated real TraceSink lines to both parsers
// and requires the same records field by field; round-trip and golden tests
// pin the writer's bytes.

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/sim/rng.h"
#include "src/tools/trace_reader.h"
#include "src/trace/json_util.h"
#include "src/trace/trace.h"
#include "tests/test_util.h"

namespace xk {
namespace {

using tracetool::EventRec;
using tracetool::LogRec;
using tracetool::SpanRec;
using tracetool::TraceFile;
using tracetool::WireRec;

// --- reference model ---------------------------------------------------------------

namespace ref {

bool ParseQuoted(const std::string& s, size_t& i, std::string& out) {
  if (i >= s.size() || s[i] != '"') {
    return false;
  }
  ++i;
  out.clear();
  while (i < s.size()) {
    const char c = s[i++];
    if (c == '"') {
      return true;
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i >= s.size()) {
      return false;
    }
    const char e = s[i++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 > s.size()) {
          return false;
        }
        unsigned v = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = s[i++];
          v <<= 4;
          if (h >= '0' && h <= '9') {
            v |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            v |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            v |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        out += static_cast<char>(v);
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

// A flat object's fields, split by value type.
struct FlatObj {
  std::vector<std::pair<std::string, std::string>> strs;
  std::vector<std::pair<std::string, int64_t>> ints;

  const std::string* str(const char* key) const {
    for (const auto& [k, v] : strs) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  int64_t num(const char* key) const {
    for (const auto& [k, v] : ints) {
      if (k == key) {
        return v;
      }
    }
    return 0;
  }
};

bool ParseFlatObject(const std::string& line, FlatObj& obj) {
  size_t i = 0;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
    ++i;
  }
  if (i >= line.size() || line[i] != '{') {
    return false;
  }
  ++i;
  std::string key;
  std::string sval;
  while (i < line.size()) {
    if (line[i] == '}') {
      return true;
    }
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (!ParseQuoted(line, i, key)) {
      return false;
    }
    if (i >= line.size() || line[i] != ':') {
      return false;
    }
    ++i;
    if (i < line.size() && line[i] == '"') {
      if (!ParseQuoted(line, i, sval)) {
        return false;
      }
      obj.strs.emplace_back(key, sval);
    } else {
      bool neg = false;
      if (i < line.size() && line[i] == '-') {
        neg = true;
        ++i;
      }
      if (i >= line.size() || line[i] < '0' || line[i] > '9') {
        return false;
      }
      // Accumulated unsigned, so an over-long number wraps mod 2^64 instead
      // of overflowing a signed integer.
      uint64_t v = 0;
      while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
        v = v * 10 + static_cast<uint64_t>(line[i] - '0');
        ++i;
      }
      obj.ints.emplace_back(key, static_cast<int64_t>(neg ? 0 - v : v));
    }
  }
  return false;
}

std::string StrOr(const FlatObj& o, const char* key) {
  const std::string* s = o.str(key);
  return s != nullptr ? *s : std::string();
}

TraceFile Parse(const std::string& text) {
  TraceFile tf;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      nl = text.size();
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) {
      continue;
    }
    FlatObj o;
    if (!ParseFlatObject(line, o)) {
      continue;
    }
    const std::string kind = StrOr(o, "k");
    if (kind == "span") {
      SpanRec r;
      r.host = StrOr(o, "host");
      r.proto = StrOr(o, "proto");
      r.op = StrOr(o, "op");
      r.status = StrOr(o, "status");
      r.sess = static_cast<uint64_t>(o.num("sess"));
      r.msg = static_cast<uint64_t>(o.num("msg"));
      r.len = static_cast<uint64_t>(o.num("len"));
      r.t0 = o.num("t0");
      r.t1 = o.num("t1");
      r.incl = o.num("incl");
      r.excl = o.num("excl");
      r.depth = static_cast<uint64_t>(o.num("depth"));
      tf.spans.push_back(std::move(r));
    } else if (kind == "wire") {
      WireRec r;
      r.seg = o.num("seg");
      r.t0 = o.num("t0");
      r.t1 = o.num("t1");
      r.arrive = o.num("arrive");
      r.len = static_cast<uint64_t>(o.num("len"));
      r.qdepth = static_cast<uint64_t>(o.num("qd"));
      r.qwait = o.num("qw");
      r.msg = static_cast<uint64_t>(o.num("msg"));
      tf.wires.push_back(r);
    } else if (kind == "ev") {
      EventRec r;
      r.host = StrOr(o, "host");
      r.proto = StrOr(o, "proto");
      r.op = StrOr(o, "op");
      r.status = StrOr(o, "status");
      r.t = o.num("t");
      r.call = static_cast<uint64_t>(o.num("call"));
      r.msg = static_cast<uint64_t>(o.num("msg"));
      r.sess = static_cast<uint64_t>(o.num("sess"));
      r.detail = static_cast<uint64_t>(o.num("detail"));
      tf.events.push_back(std::move(r));
    } else if (kind == "log") {
      LogRec r;
      r.host = StrOr(o, "host");
      r.text = StrOr(o, "text");
      r.t = o.num("t");
      r.level = o.num("level");
      tf.logs.push_back(std::move(r));
    } else if (kind == "meta") {
      tf.dropped += static_cast<uint64_t>(o.num("dropped"));
    }
  }
  return tf;
}

}  // namespace ref

// --- helpers -------------------------------------------------------------------------

auto Fields(const SpanRec& r) {
  return std::tie(r.host, r.proto, r.op, r.status, r.sess, r.msg, r.len, r.t0, r.t1, r.incl,
                  r.excl, r.depth);
}
auto Fields(const WireRec& r) {
  return std::tie(r.seg, r.t0, r.t1, r.arrive, r.len, r.qdepth, r.qwait, r.msg);
}
auto Fields(const EventRec& r) {
  return std::tie(r.host, r.proto, r.op, r.status, r.t, r.call, r.msg, r.sess, r.detail);
}
auto Fields(const LogRec& r) { return std::tie(r.host, r.text, r.t, r.level); }

template <typename Rec>
void ExpectSameRecords(const std::vector<Rec>& want, const std::vector<Rec>& got,
                       const std::string& doc) {
  ASSERT_EQ(want.size(), got.size()) << doc;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Fields(want[i]), Fields(got[i])) << "record " << i << " of\n" << doc;
  }
}

void ExpectSameTrace(const TraceFile& want, const TraceFile& got, const std::string& doc) {
  ASSERT_NO_FATAL_FAILURE(ExpectSameRecords(want.spans, got.spans, doc));
  ASSERT_NO_FATAL_FAILURE(ExpectSameRecords(want.wires, got.wires, doc));
  ASSERT_NO_FATAL_FAILURE(ExpectSameRecords(want.events, got.events, doc));
  ASSERT_NO_FATAL_FAILURE(ExpectSameRecords(want.logs, got.logs, doc));
  ASSERT_EQ(want.dropped, got.dropped) << doc;
}

// A sink holding one record of each kind, recorded on a standalone kernel.
struct OneOfEach {
  EventQueue events;
  Kernel kernel{"h1", events, HostEnv::kXKernel, IpAddr(10, 0, 0, 1), EthAddr::FromIndex(1)};
  TestAnchor proto{kernel, "anchor"};
  TraceSink sink;

  explicit OneOfEach(std::string_view log_text, size_t max_records = 1 << 20)
      : sink(max_records) {
    const Message msg(64);
    kernel.RunTask(Usec(3), [&] {
      TraceSpan span(&sink, kernel, TraceOp::kPush, proto, nullptr, &msg);
      kernel.Charge(Usec(2));
      (void)span.Finish(OkStatus());
    });
    sink.RecordWire(1, Usec(10), Usec(20), Usec(25), 90, 2, Usec(4), 1);
    sink.RecordEvent(kernel, TraceOp::kRetransmit, "chan", Usec(30), 7, &msg, nullptr, 2,
                     StatusCode::kTimeout);
    sink.RecordLog(kernel, 3, log_text);
  }
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    out.push_back(text.substr(pos, nl - pos));
    pos = nl == std::string::npos ? text.size() : nl + 1;
  }
  return out;
}

// --- unit cases ----------------------------------------------------------------------

TEST(TraceReader, DecodesEveryEscape) {
  const TraceFile tf = tracetool::Parse(
      R"({"k":"log","host":"h\/1","t":1,"level":2,)"
      R"("text":"a\"b\\c\/d\ne\rf\tg\u0001\u001Fh\u00e9"})");
  ASSERT_EQ(tf.logs.size(), 1u);
  EXPECT_EQ(tf.logs[0].host, "h/1");
  EXPECT_EQ(tf.logs[0].text, std::string("a\"b\\c/d\ne\rf\tg\x01\x1fh\xe9"));
}

TEST(TraceReader, NegativeAndExtremeIntegers) {
  const TraceFile tf = tracetool::Parse(
      "{\"k\":\"wire\",\"seg\":-1,\"t0\":-9223372036854775808,\"t1\":9223372036854775807,"
      "\"qw\":-7,\"msg\":18446744073709551615}\n"
      "{\"k\":\"log\",\"level\":-3,\"t\":-0}\n");
  ASSERT_EQ(tf.wires.size(), 1u);
  EXPECT_EQ(tf.wires[0].seg, -1);
  EXPECT_EQ(tf.wires[0].t0, INT64_MIN);
  EXPECT_EQ(tf.wires[0].t1, INT64_MAX);
  EXPECT_EQ(tf.wires[0].qwait, -7);
  EXPECT_EQ(tf.wires[0].msg, UINT64_MAX);
  ASSERT_EQ(tf.logs.size(), 1u);
  EXPECT_EQ(tf.logs[0].level, -3);
  EXPECT_EQ(tf.logs[0].t, 0);
}

TEST(TraceReader, KindMayComeLast) {
  const TraceFile tf =
      tracetool::Parse(R"({"host":"h","proto":"ip","op":"pop","t0":4,"k":"span"})");
  ASSERT_EQ(tf.spans.size(), 1u);
  EXPECT_EQ(tf.spans[0].host, "h");
  EXPECT_EQ(tf.spans[0].proto, "ip");
  EXPECT_EQ(tf.spans[0].op, "pop");
  EXPECT_EQ(tf.spans[0].t0, 4);
}

TEST(TraceReader, FirstOccurrenceOfAKeyWins) {
  const TraceFile tf = tracetool::Parse(
      R"({"k":"log","k":"span","host":"a","host":"b","t":1,"t":2,"text":"x","text":"y"})");
  ASSERT_EQ(tf.logs.size(), 1u);
  EXPECT_TRUE(tf.spans.empty());
  EXPECT_EQ(tf.logs[0].host, "a");
  EXPECT_EQ(tf.logs[0].t, 1);
  EXPECT_EQ(tf.logs[0].text, "x");
}

TEST(TraceReader, WrongTypedValueReadsAsAbsent) {
  // A string where a number belongs (and the reverse) is skipped: the field
  // reads as absent unless a later value of the right type supplies it.
  const TraceFile tf = tracetool::Parse(
      "{\"k\":\"span\",\"host\":7,\"proto\":5,\"proto\":\"ip\",\"t0\":\"12\",\"t1\":\"9\","
      "\"t1\":3}\n"
      "{\"k\":4,\"host\":\"h\"}\n");
  ASSERT_EQ(tf.spans.size(), 1u);
  EXPECT_EQ(tf.spans[0].host, "");
  EXPECT_EQ(tf.spans[0].proto, "ip");
  EXPECT_EQ(tf.spans[0].t0, 0);
  EXPECT_EQ(tf.spans[0].t1, 3);
  EXPECT_TRUE(tf.logs.empty());
}

TEST(TraceReader, TrailingCarriageReturnIsIgnored) {
  const TraceFile tf = tracetool::Parse(
      "{\"k\":\"log\",\"host\":\"h\",\"t\":5}\r\n{\"k\":\"log\",\"t\":6}\r");
  ASSERT_EQ(tf.logs.size(), 2u);
  EXPECT_EQ(tf.logs[0].t, 5);
  EXPECT_EQ(tf.logs[1].t, 6);
}

TEST(TraceReader, UnknownKindsAndEmptyLinesAreSkipped) {
  const TraceFile tf = tracetool::Parse(
      "\n\n{\"k\":\"future\",\"t\":1}\n{}\n{\"t\":2}\n\n{\"k\":\"log\",\"t\":3}\n\n");
  EXPECT_TRUE(tf.spans.empty());
  EXPECT_TRUE(tf.wires.empty());
  EXPECT_TRUE(tf.events.empty());
  ASSERT_EQ(tf.logs.size(), 1u);
  EXPECT_EQ(tf.logs[0].t, 3);
}

TEST(TraceReader, MalformedLinesAreSkipped) {
  const char* const bad[] = {
      R"({"k""log","t":1})",         // no colon
      R"({"k":"log","text":"abc)",   // unterminated string
      R"({"k":"log","t":true})",     // bare-word value
      R"({"k":"log","t":1)",         // no closing brace
      R"({"k":"log","t":-})",        // sign without digits
      R"({"k":"log","text":"\q"})",  // unknown escape
      R"({"k":"log","text":"\u00g1"})",
      R"( x{"k":"log"})",
      R"({ "k":"log"})",
  };
  for (const char* line : bad) {
    const TraceFile tf = tracetool::Parse(std::string(line) + "\n{\"k\":\"log\",\"t\":9}\n");
    ASSERT_EQ(tf.logs.size(), 1u) << line;
    EXPECT_EQ(tf.logs[0].t, 9) << line;
  }
}

TEST(TraceReader, MetaDroppedIsSummed) {
  const TraceFile tf = tracetool::Parse(
      "{\"k\":\"meta\",\"v\":1,\"records\":9,\"dropped\":2}\n"
      "{\"k\":\"meta\",\"dropped\":3,\"dropped\":100}\n"
      "{\"k\":\"meta\",\"dropped\":\"40\"}\n"
      "{\"k\":\"meta\",\"v\":1,\"records\":0,\"dropped\":0}\n");
  EXPECT_EQ(tf.dropped, 5u);
}

TEST(TraceReader, LoadMatchesParse) {
  const OneOfEach one("loaded");
  const std::string text = one.sink.ToJsonl();
  const std::string path = ::testing::TempDir() + "trace_reader_test.trace.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  ASSERT_EQ(std::fclose(f), 0);
  ExpectSameTrace(tracetool::Parse(text), tracetool::Load(path), text);
  std::remove(path.c_str());
  EXPECT_TRUE(tracetool::Load(path).logs.empty());
}

// --- differential fuzz against the reference model --------------------------------

// Splits a well-formed `{f1,f2,...}` line into its fields; empty if the line
// does not split cleanly (an earlier mutation broke it).
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  if (line.size() < 2 || line.front() != '{') {
    return {};
  }
  bool in_str = false;
  size_t start = 1;
  for (size_t i = 1; i < line.size(); ++i) {
    const char c = line[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
    } else if (c == '"') {
      in_str = true;
    } else if (c == ',' || c == '}') {
      fields.push_back(line.substr(start, i - start));
      start = i + 1;
      if (c == '}') {
        return fields;
      }
    }
  }
  return {};
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i > 0 ? "," : "") + fields[i];
  }
  return out + "}";
}

std::string Mutate(std::string line, Rng& rng, const std::vector<std::string>& corpus) {
  static constexpr char kInteresting[] = "\"\\:,{}-0123456789ku/ \r\t\n";
  const int steps = 1 + static_cast<int>(rng.NextBelow(3));
  for (int s = 0; s < steps; ++s) {
    std::vector<std::string> fields = SplitFields(line);
    switch (rng.NextBelow(6)) {
      case 0:  // truncate
        line.resize(rng.NextBelow(line.size() + 1));
        break;
      case 1:  // flip a byte, to an interesting one or to any
        if (!line.empty()) {
          const size_t at = rng.NextBelow(line.size());
          line[at] = rng.NextBelow(2) == 0
                         ? kInteresting[rng.NextBelow(sizeof kInteresting - 1)]
                         : static_cast<char>(rng.NextBelow(256));
        }
        break;
      case 2:  // reorder the keys
        for (size_t i = fields.size(); i > 1; --i) {
          std::swap(fields[i - 1], fields[rng.NextBelow(i)]);
        }
        if (!fields.empty()) {
          line = JoinFields(fields);
        }
        break;
      case 3:  // duplicate a key, at a random place, with its own or another line's value
        if (!fields.empty()) {
          std::string dup = fields[rng.NextBelow(fields.size())];
          const std::vector<std::string> other =
              SplitFields(corpus[rng.NextBelow(corpus.size())]);
          const size_t colon = dup.find("\":");
          if (!other.empty() && colon != std::string::npos && rng.NextBelow(2) == 0) {
            const std::string& donor = other[rng.NextBelow(other.size())];
            const size_t dcolon = donor.find("\":");
            if (dcolon != std::string::npos) {
              dup = dup.substr(0, colon + 2) + donor.substr(dcolon + 2);
            }
          }
          fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(
                                             rng.NextBelow(fields.size() + 1)),
                        dup);
          line = JoinFields(fields);
        }
        break;
      case 4:  // give a field a value of the other type
        if (!fields.empty()) {
          std::string& f = fields[rng.NextBelow(fields.size())];
          const size_t colon = f.find("\":");
          if (colon != std::string::npos) {
            const bool was_str = colon + 2 < f.size() && f[colon + 2] == '"';
            f = f.substr(0, colon + 2) + (was_str ? "12" : "\"12\"");
            line = JoinFields(fields);
          }
        }
        break;
      case 5:  // splice in text from another line
        if (!line.empty()) {
          const std::string& donor = corpus[rng.NextBelow(corpus.size())];
          const size_t at = rng.NextBelow(line.size());
          const size_t from = rng.NextBelow(donor.size());
          line = line.substr(0, at) + donor.substr(from, rng.NextBelow(24));
        }
        break;
    }
  }
  return line;
}

// Real TraceSink lines of every kind: a short traced datacenter run (spans,
// wires, point events, meta) plus log records with hostile text.
std::vector<std::string> Corpus() {
  DatacenterSpec spec;
  spec.client_segments = 2;
  spec.clients_per_segment = 1;
  spec.replicas = 2;
  std::string error;
  EXPECT_TRUE(ArrivalSpec::Parse("poisson:rate=100,horizon=60ms,seed=3", &spec.arrivals, &error))
      << error;
  spec.faults.Crash("s0", Msec(20), Msec(40));
  TraceSink sink;
  TraceSink::set_thread_default(&sink);
  (void)MeasureDatacenter(spec);
  TraceSink::set_thread_default(nullptr);
  std::vector<std::string> lines = Lines(sink.ToJsonl());
  const OneOfEach hostile("q\"b\\s/\x01\x1f\n\r\t\x7f \xc3\xa9");
  for (const std::string& l : Lines(hostile.sink.ToJsonl())) {
    lines.push_back(l);
  }
  return lines;
}

TEST(TraceReaderFuzz, MutatedLinesParseLikeTheReferenceModel) {
  const std::vector<std::string> corpus = Corpus();
  ASSERT_GT(corpus.size(), 100u);
  std::string all;
  for (const std::string& l : corpus) {
    all += l + "\n";
  }
  const TraceFile clean = tracetool::Parse(all);
  EXPECT_FALSE(clean.spans.empty());
  EXPECT_FALSE(clean.wires.empty());
  EXPECT_FALSE(clean.events.empty());
  EXPECT_FALSE(clean.logs.empty());
  ExpectSameTrace(ref::Parse(all), clean, "<the unmutated corpus>");

  Rng rng(0x7ace);
  size_t kept = 0;  // records the mutated documents still yield
  for (int doc = 0; doc < 400; ++doc) {
    std::string text;
    for (int l = 0; l < 50; ++l) {
      text += Mutate(corpus[rng.NextBelow(corpus.size())], rng, corpus);
      text += rng.NextBelow(8) == 0 ? "\r\n" : "\n";
    }
    if (rng.NextBelow(2) == 0) {
      text.pop_back();  // the last line unterminated
    }
    const TraceFile got = tracetool::Parse(text);
    ExpectSameTrace(ref::Parse(text), got, text);
    if (HasFatalFailure()) {
      return;
    }
    kept += got.spans.size() + got.wires.size() + got.events.size() + got.logs.size();
  }
  // Both accepted and rejected lines are exercised: 20,000 lines in all.
  EXPECT_GT(kept, 4000u);
  EXPECT_LT(kept, 16000u);
}

// --- writer: round trip and golden bytes --------------------------------------------

TEST(TraceWriter, RecordsRoundTripThroughToJsonl) {
  const std::string text = std::string("say \"hi\" \\ path/x\n\ttab\r") + '\0' + "\x01\x1f\x7f" +
                           "\xc3\xa9 end";
  const OneOfEach one(text);
  const TraceFile tf = tracetool::Parse(one.sink.ToJsonl());
  ASSERT_EQ(tf.spans.size(), 1u);
  ASSERT_EQ(tf.wires.size(), 1u);
  ASSERT_EQ(tf.events.size(), 1u);
  ASSERT_EQ(tf.logs.size(), 1u);
  EXPECT_EQ(tf.dropped, 0u);

  const SpanRec& s = tf.spans[0];
  EXPECT_EQ(s.host, "h1");
  EXPECT_EQ(s.proto, "anchor");
  EXPECT_EQ(s.op, "push");
  EXPECT_EQ(s.status, "OK");
  EXPECT_EQ(s.msg, 1u);
  EXPECT_EQ(s.len, 64u);
  EXPECT_EQ(s.t0, Usec(3));
  EXPECT_EQ(s.t1, Usec(5));
  EXPECT_EQ(s.incl, Usec(2));
  EXPECT_EQ(s.excl, Usec(2));
  EXPECT_EQ(s.depth, 0u);

  const WireRec& w = tf.wires[0];
  EXPECT_EQ(Fields(w), Fields(WireRec{1, Usec(10), Usec(20), Usec(25), 90, 2, Usec(4), 1}));

  const EventRec& e = tf.events[0];
  EXPECT_EQ(e.host, "h1");
  EXPECT_EQ(e.proto, "chan");
  EXPECT_EQ(e.op, "rexmit");
  EXPECT_EQ(e.status, StatusCodeName(StatusCode::kTimeout));
  EXPECT_EQ(e.t, Usec(30));
  EXPECT_EQ(e.call, 7u);
  EXPECT_EQ(e.msg, 1u);
  EXPECT_EQ(e.sess, 0u);
  EXPECT_EQ(e.detail, 2u);

  EXPECT_EQ(tf.logs[0].host, "h1");
  EXPECT_EQ(tf.logs[0].text, text);
  EXPECT_EQ(tf.logs[0].level, 3);
}

TEST(TraceWriter, IntegerFieldsAtTheLimits) {
  std::string out;
  JsonAppendField(out, "a", INT64_MIN);
  JsonAppendField(out, "b", INT64_MAX);
  JsonAppendField(out, "c", UINT64_MAX);
  JsonAppendField(out, "d", int64_t{0});
  JsonAppendField(out, "e", uint64_t{0});
  JsonAppendField(out, "f", int64_t{-1});
  EXPECT_EQ(out,
            ",\"a\":-9223372036854775808,\"b\":9223372036854775807,"
            "\"c\":18446744073709551615,\"d\":0,\"e\":0,\"f\":-1");
}

TEST(TraceWriter, EscapesControlBytesOnly) {
  std::string out;
  JsonAppendEscaped(out, std::string("\x01") + '\0' + "\x1f" + "\"\\\n\r\t/" + "\x7f" +
                             "\xc3\xa9" + "\xff");
  EXPECT_EQ(out, std::string("\"\\u0001\\u0000\\u001f\\\"\\\\\\n\\r\\t/") + "\x7f" + "\xc3\xa9" +
                     "\xff\"");
  out.clear();
  JsonAppendEscaped(out, "");
  EXPECT_EQ(out, "\"\"");
  out.clear();
  JsonAppendField(out, "k\"ey", std::string_view("plain"));
  EXPECT_EQ(out, ",\"k\\\"ey\":\"plain\"");
}

TEST(TraceWriter, ToJsonlBytesArePinned) {
  // max_records 3: the log record is dropped, and counted in the meta line.
  const OneOfEach capped("unused", 3);
  EXPECT_EQ(capped.sink.ToJsonl(),
            "{\"k\":\"meta\",\"v\":1,\"records\":3,\"dropped\":1}\n"
            "{\"k\":\"span\",\"host\":\"h1\",\"proto\":\"anchor\",\"op\":\"push\",\"sess\":0,"
            "\"msg\":1,\"len\":64,\"t0\":3000,\"t1\":5000,\"incl\":2000,\"excl\":2000,"
            "\"depth\":0,\"status\":\"OK\"}\n"
            "{\"k\":\"wire\",\"seg\":1,\"t0\":10000,\"t1\":20000,\"arrive\":25000,\"len\":90,"
            "\"qd\":2,\"qw\":4000,\"msg\":1}\n"
            "{\"k\":\"ev\",\"host\":\"h1\",\"proto\":\"chan\",\"op\":\"rexmit\",\"t\":30000,"
            "\"call\":7,\"msg\":1,\"sess\":0,\"detail\":2,\"status\":\"TIMEOUT\"}\n");
  const OneOfEach one("a \"log\"\x01");
  EXPECT_EQ(Lines(one.sink.ToJsonl()).back(),
            "{\"k\":\"log\",\"host\":\"h1\",\"t\":0,\"level\":3,"
            "\"text\":\"a \\\"log\\\"\\u0001\"}");
}

}  // namespace
}  // namespace xk
