// Tests for the tracing layer (src/trace/): counter registry semantics,
// deterministic golden traces across identical runs, structural invariants
// tying spans/counters back to GemmResult, and Chrome-JSON export validity
// (checked with the minimal parser below — no external JSON dependency).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ftm/core/dgemm.hpp"
#include "ftm/core/ftimm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/trace/chrome.hpp"
#include "ftm/trace/counters.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/workload/generators.hpp"

using namespace ftm;
using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;
using core::Strategy;
using kernelgen::DType;
using trace::CounterRegistry;
using trace::Event;
using trace::TraceSession;
using trace::TrackKind;

// ---- minimal JSON validity parser ---------------------------------------
//
// Validates syntax only (objects, arrays, strings with escapes, numbers,
// true/false/null); on success the whole input was one JSON value.
namespace {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }

  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start) return false;
    if (s_[start] == '-' && pos_ == start + 1) return false;
    return true;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Runs one deterministic timing-only GEMM under a fresh session and
/// returns (events, counters, result). F64 runs through dgemm, the other
/// dtypes through sgemm (F16/BF16 via opt.dtype).
struct TracedRun {
  std::vector<Event> events;
  CounterRegistry counters;
  GemmResult result;
};

TracedRun traced_gemm(std::size_t m, std::size_t n, std::size_t k,
                      Strategy force, DType dtype = DType::F32) {
  core::FtimmEngine eng;
  FtimmOptions opt;
  opt.cores = 8;
  opt.functional = false;
  opt.force = force;
  TraceSession session;
  session.start();
  TracedRun out;
  if (dtype == DType::F64) {
    out.result =
        core::dgemm(eng, core::DGemmInput::shape_only(m, n, k), opt);
  } else {
    opt.dtype = dtype;
    out.result = eng.sgemm(GemmInput::shape_only(m, n, k), opt);
  }
  session.stop();
  out.events = session.events();
  out.counters = session.counters();
  return out;
}

}  // namespace

// ---- CounterRegistry ----------------------------------------------------

TEST(CounterRegistry, StartsEmptyAndAccumulates) {
  CounterRegistry r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.value("x"), 0u);
  EXPECT_FALSE(r.has("x"));
  r.add("x", 3);
  r.add("x", 4);
  EXPECT_TRUE(r.has("x"));
  EXPECT_EQ(r.value("x"), 7u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(CounterRegistry, SortedIsNameOrdered) {
  CounterRegistry r;
  r.add("b", 2);
  r.add("a", 1);
  r.add("c", 3);
  const auto s = r.sorted();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].first, "a");
  EXPECT_EQ(s[1].first, "b");
  EXPECT_EQ(s[2].first, "c");
}

TEST(CounterRegistry, MergeAddsAndCreates) {
  CounterRegistry a, b;
  a.add("shared", 1);
  b.add("shared", 10);
  b.add("only_b", 5);
  a.merge(b);
  EXPECT_EQ(a.value("shared"), 11u);
  EXPECT_EQ(a.value("only_b"), 5u);
  EXPECT_EQ(b.value("shared"), 10u);  // merge does not mutate the source
}

TEST(CounterRegistry, TableHasOneRowPerCounter) {
  CounterRegistry r;
  r.add("a", 1);
  r.add("b", 2);
  EXPECT_EQ(r.table().rows().size(), 2u);
}

// ---- TraceSession basics ------------------------------------------------

TEST(TraceSession, CurrentFollowsStartStop) {
  EXPECT_EQ(TraceSession::current(), nullptr);
  {
    TraceSession s;
    EXPECT_FALSE(s.active());
    s.start();
    EXPECT_TRUE(s.active());
    EXPECT_EQ(TraceSession::current(), &s);
    s.stop();
    EXPECT_FALSE(s.active());
    EXPECT_EQ(TraceSession::current(), nullptr);
  }
  // A second session can start after the first is gone.
  TraceSession s2;
  s2.start();
  EXPECT_EQ(TraceSession::current(), &s2);
  s2.stop();
}

TEST(TraceSession, RecordAndCountRoundTrip) {
  TraceSession s;
  s.start();
  Event e;
  e.name = "spanA";
  e.cat = "test";
  e.ts = 10;
  e.dur = 5;
  e.cluster = 0;
  e.core = 1;
  e.track = TrackKind::Compute;
  e.arg("bytes", 64);
  s.record(e);
  s.count("test.counter", 2);
  s.count("test.counter", 3);
  s.stop();

  ASSERT_EQ(s.event_count(), 1u);
  const auto evs = s.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_STREQ(evs[0].name, "spanA");
  EXPECT_EQ(evs[0].dur, 5u);
  ASSERT_EQ(evs[0].nargs, 1);
  EXPECT_EQ(evs[0].arg_val[0], 64u);
  EXPECT_EQ(s.counters().value("test.counter"), 5u);
}

TEST(TraceSession, EventArgListIsCapped) {
  Event e;
  e.arg("a", 1).arg("b", 2).arg("c", 3).arg("d", 4);
  EXPECT_EQ(e.nargs, Event::kMaxArgs);
}

// ---- Golden traces from instrumented GEMMs ------------------------------

TEST(GoldenTrace, IdenticalRunsProduceIdenticalTraces) {
  for (const Strategy s :
       {Strategy::ParallelM, Strategy::ParallelK, Strategy::TGemm}) {
    const TracedRun a = traced_gemm(2048, 32, 1024, s);
    const TracedRun b = traced_gemm(2048, 32, 1024, s);
    ASSERT_FALSE(a.events.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      const Event& x = a.events[i];
      const Event& y = b.events[i];
      ASSERT_STREQ(x.name, y.name) << "event " << i;
      ASSERT_EQ(x.ts, y.ts) << x.name << " @ " << i;
      ASSERT_EQ(x.dur, y.dur) << x.name << " @ " << i;
      ASSERT_EQ(x.cluster, y.cluster);
      ASSERT_EQ(x.core, y.core);
      ASSERT_EQ(x.nargs, y.nargs);
      for (int j = 0; j < x.nargs; ++j) {
        ASSERT_EQ(x.arg_val[j], y.arg_val[j]) << x.name << " arg " << j;
      }
    }
    EXPECT_EQ(a.counters.sorted(), b.counters.sorted());
  }
}

TEST(GoldenTrace, CountersMatchGemmResult) {
  // Every precision runs the same instrumented Algorithm 4 loop nest;
  // Algorithms 5 and 1 share its transfer entry and slice loop at F32.
  struct Case {
    Strategy s;
    DType dt;
    std::size_t m, n, k;
  };
  const Case cases[] = {{Strategy::ParallelM, DType::F32, 4096, 32, 512},
                        {Strategy::ParallelM, DType::F64, 4096, 32, 512},
                        {Strategy::ParallelM, DType::F16, 4096, 32, 512},
                        {Strategy::ParallelM, DType::BF16, 4096, 32, 512},
                        {Strategy::ParallelK, DType::F32, 128, 32, 65536},
                        {Strategy::TGemm, DType::F32, 2048, 200, 1024}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.s)) + " " +
                 kernelgen::to_string(c.dt));
    const TracedRun r = traced_gemm(c.m, c.n, c.k, c.s, c.dt);
    ASSERT_EQ(r.result.strategy, c.s);
    ASSERT_GT(r.result.kernel_calls, 0u);
    // Every DDR byte the strategy accounted for shows up in the DMA-site
    // counters, and vice versa.
    EXPECT_EQ(r.counters.value("ddr.read_bytes") +
                  r.counters.value("ddr.write_bytes"),
              r.result.ddr_bytes);
    // One "kernel" span and one kernel.calls tick per micro-kernel call.
    EXPECT_EQ(r.counters.value("kernel.calls"), r.result.kernel_calls);
    std::uint64_t kernel_spans = 0;
    for (const Event& e : r.events) {
      if (std::string(e.name) == "kernel") ++kernel_spans;
    }
    EXPECT_EQ(kernel_spans, r.result.kernel_calls);
    // The whole-GEMM cluster span carries the result's cycle count.
    EXPECT_EQ(r.counters.value("gemm.cycles"), r.result.cycles);
    // Algorithm 5's on-chip traffic is exactly its GSM reduction: a
    // GSM<->AM transfer charged as DDR (or the reverse) breaks both sums.
    if (c.s == Strategy::ParallelK) {
      EXPECT_GT(r.counters.value("reduce.gsm_bytes"), 0u);
      EXPECT_EQ(r.counters.value("reduce.gsm_bytes"),
                r.counters.value("gsm.read_bytes") +
                    r.counters.value("gsm.write_bytes"));
    }
  }
}

TEST(GoldenTrace, HalfRequestCountsDtypeOnce) {
  // kernel.dtype is cumulative: one F16 request through the runtime adds
  // its dtype id (2) exactly once, not once per layer it passes.
  TraceSession session;
  session.start();
  {
    runtime::RuntimeOptions ro;
    ro.clusters = 1;
    ro.gemm.functional = false;
    runtime::GemmRuntime rt(ro);
    FtimmOptions opt = ro.gemm;
    opt.dtype = DType::F16;
    rt.submit(GemmInput::shape_only(4096, 32, 512), opt).get();
  }
  session.stop();
  EXPECT_EQ(session.counters().value("kernel.dtype"),
            static_cast<std::uint64_t>(DType::F16));
}

TEST(GoldenTrace, DmaSpansSerializePerEngine) {
  const TracedRun r = traced_gemm(2048, 96, 2048, Strategy::TGemm);
  // Per (cluster, core) DMA engine, spans must be non-overlapping and
  // time-ordered: the engine model serializes transfers.
  std::map<std::pair<int, int>, std::uint64_t> busy_until;
  for (const Event& e : r.events) {
    if (e.track != TrackKind::Dma) continue;
    ASSERT_GE(e.nargs, 1);
    EXPECT_STREQ(e.arg_name[0], "bytes");
    EXPECT_GT(e.arg_val[0], 0u);
    auto& t = busy_until[{e.cluster, e.core}];
    EXPECT_GE(e.ts, t) << e.name;
    t = e.ts + e.dur;
  }
  EXPECT_FALSE(busy_until.empty());
}

TEST(GoldenTrace, KStrategyRecordsReduction) {
  const TracedRun r = traced_gemm(128, 32, 65536, Strategy::ParallelK);
  EXPECT_GT(r.counters.value("reduce.gsm_bytes"), 0u);
  bool saw_reduce = false;
  for (const Event& e : r.events) {
    if (std::string(e.name) == "reduce") saw_reduce = true;
  }
  EXPECT_TRUE(saw_reduce);
}

TEST(GoldenTrace, EpochKeepsBackToBackGemmsMonotonic) {
  core::FtimmEngine eng;
  FtimmOptions opt;
  opt.cores = 8;
  opt.functional = false;
  TraceSession session;
  session.start();
  eng.sgemm(GemmInput::shape_only(2048, 32, 512), opt);
  eng.sgemm(GemmInput::shape_only(2048, 32, 512), opt);
  session.stop();
  // Two "gemm" cluster spans, the second starting at/after the first ends.
  const std::vector<Event> evs = session.events();
  std::vector<const Event*> gemms;
  for (const Event& e : evs) {
    if (e.track == TrackKind::Cluster && std::string(e.name) == "gemm") {
      gemms.push_back(&e);
    }
  }
  ASSERT_EQ(gemms.size(), 2u);
  EXPECT_GE(gemms[1]->ts, gemms[0]->ts + gemms[0]->dur);
}

// ---- Chrome JSON export -------------------------------------------------

TEST(ChromeExport, SingleClusterJsonIsValid) {
  core::FtimmEngine eng;
  FtimmOptions opt;
  opt.cores = 8;
  opt.functional = false;
  TraceSession session;
  session.start();
  eng.sgemm(GemmInput::shape_only(2048, 32, 1024), opt);
  session.stop();
  const std::string js = trace::chrome_json(session);
  EXPECT_TRUE(JsonChecker(js).valid()) << js.substr(0, 400);
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"ftmCounters\""), std::string::npos);
  EXPECT_NE(js.find("process_name"), std::string::npos);
}

TEST(ChromeExport, RuntimeTraceCoversMultipleClusters) {
  TraceSession session;
  session.start();
  {
    runtime::RuntimeOptions ro;
    ro.clusters = 2;
    ro.gemm.functional = false;
    runtime::GemmRuntime rt(ro);
    std::vector<std::future<GemmResult>> futs;
    // Both clusters are idle at startup, so this wide request is split
    // into one shard per cluster — sim events on both engines,
    // deterministically.
    futs.push_back(rt.submit(GemmInput::shape_only(32768, 96, 2048)));
    for (int i = 0; i < 6; ++i) {
      futs.push_back(rt.submit(GemmInput::shape_only(4096, 16, 512)));
    }
    for (auto& f : futs) f.get();
    rt.wait_idle();
  }
  session.stop();

  const std::string js = trace::chrome_json(session);
  EXPECT_TRUE(JsonChecker(js).valid());
  // Sim events from both clusters (pid = 1 + cluster id) and the
  // host-side lifecycle (pid 0).
  EXPECT_NE(js.find("\"pid\":1,"), std::string::npos);
  EXPECT_NE(js.find("\"pid\":2,"), std::string::npos);
  EXPECT_NE(js.find("\"queued\""), std::string::npos);
  EXPECT_NE(js.find("\"execute\""), std::string::npos);
  EXPECT_NE(js.find("\"sharded\""), std::string::npos);
  EXPECT_NE(js.find("\"merged\""), std::string::npos);
  EXPECT_NE(js.find("\"bytes\""), std::string::npos);

  // Request lifecycle spans: 2 shards + 6 plain requests executed.
  std::uint64_t executes = 0;
  for (const Event& e : session.events()) {
    if (e.track == TrackKind::Runtime &&
        std::string(e.name) == "execute") {
      ++executes;
    }
  }
  EXPECT_EQ(executes, 8u);
  EXPECT_EQ(session.counters().value("runtime.submitted"), 7u);
  EXPECT_EQ(session.counters().value("runtime.splits"), 1u);
  EXPECT_EQ(session.counters().value("runtime.plan_hits") +
                session.counters().value("runtime.plan_misses"),
            8u);
}

// ---- RuntimeStats and their trace counters -----------------------------

// Every RuntimeStats counter has one trace twin. One traced session drives
// each way a request enters or leaves the runtime; the summed stats of all
// runtimes must equal the session's counters name for name.
TEST(RuntimeCounters, StatsAgreeWithTraceTwins) {
  using runtime::RuntimeStats;
  const std::pair<std::uint64_t RuntimeStats::*, const char*> twins[] = {
      {&RuntimeStats::submitted, "runtime.submitted"},
      {&RuntimeStats::completed, "runtime.completed"},
      {&RuntimeStats::failed, "runtime.failed"},
      {&RuntimeStats::executed, "runtime.executed"},
      {&RuntimeStats::plan_hits, "runtime.plan_hits"},
      {&RuntimeStats::plan_misses, "runtime.plan_misses"},
      {&RuntimeStats::steals, "runtime.steals"},
      {&RuntimeStats::splits, "runtime.splits"},
      {&RuntimeStats::faults, "runtime.faults"},
      {&RuntimeStats::retries, "runtime.retries"},
      {&RuntimeStats::fallbacks, "runtime.fallbacks"},
      {&RuntimeStats::deadline_misses, "runtime.deadline_misses"},
      {&RuntimeStats::rerouted, "runtime.rerouted"},
      {&RuntimeStats::batches, "runtime.batched"},
      {&RuntimeStats::coalesced, "runtime.coalesced"},
      {&RuntimeStats::rejected, "runtime.rejected"},
      {&RuntimeStats::batch_ddr_saved_bytes, "runtime.batch_ddr_saved"},
      {&RuntimeStats::checksum_checks, "integrity.checks"},
      {&RuntimeStats::sdc_detected, "integrity.detected"},
      {&RuntimeStats::sdc_corrected, "integrity.corrected"},
      {&RuntimeStats::recomputed_shards, "integrity.recomputed"},
  };
  RuntimeStats total;
  const auto add = [&](const runtime::GemmRuntime& rt) {
    const RuntimeStats s = rt.stats();
    for (const auto& [field, name] : twins) total.*field += s.*field;
  };

  TraceSession session;
  session.start();
  {
    // Plain, split and run_all submissions on one timing-only runtime.
    runtime::RuntimeOptions ro;
    ro.clusters = 2;
    ro.gemm.functional = false;
    runtime::GemmRuntime rt(ro);
    rt.submit(GemmInput::shape_only(32768, 96, 2048)).get();  // both idle
    rt.submit(GemmInput::shape_only(4096, 16, 512)).get();
    rt.submit(GemmInput::shape_only(4096, 16, 512)).get();
    const std::vector<GemmInput> problems(5,
                                          GemmInput::shape_only(512, 16, 64));
    rt.run_all(problems);
    rt.wait_idle();
    add(rt);
  }
  {
    // Eight same-class requests coalesce into one batch sharing a
    // pre-plan, and a shared B panel is staged once.
    runtime::RuntimeOptions ro;
    ro.clusters = 1;
    ro.batching.enabled = true;
    ro.batching.max_batch = 8;
    ro.batching.max_delay_ms = 1e6;  // only the size trigger fires
    runtime::GemmRuntime rt(ro);
    std::vector<workload::GemmProblem> ps;
    for (int i = 0; i < 8; ++i) {
      ps.push_back(workload::make_problem(64, 16, 32, 40 + i));
    }
    std::vector<std::future<GemmResult>> futs;
    for (auto& p : ps) {
      futs.push_back(rt.submit(
          GemmInput::bound(p.a.view(), ps.front().b.view(), p.c.view())));
    }
    for (auto& f : futs) f.get();
    rt.wait_idle();
    add(rt);
  }
  {
    // Checksum-verified requests on a clean cluster, then seeded silent
    // corruption on every cluster: each dispatch fails verification, is
    // retried once elsewhere, and ends on the host CPU.
    fault::FaultPlan plan;
    plan.seed = 7;
    runtime::RuntimeOptions ro;
    ro.clusters = 2;
    ro.integrity = core::IntegrityMode::VerifyCorrect;
    ro.resilience.enabled = true;
    ro.resilience.max_retries = 1;
    workload::GemmProblem clean = workload::make_problem(256, 32, 64, 3);
    workload::GemmProblem hit = workload::make_problem(256, 32, 64, 4);
    {
      runtime::GemmRuntime rt(ro);
      rt.submit(GemmInput::bound(clean.a.view(), clean.b.view(),
                                 clean.c.view()))
          .get();
      add(rt);
    }
    for (int c = 0; c < 2; ++c) plan.cluster(c).silent_corruption_rate = 1;
    fault::FaultInjector fi(plan);
    ro.fault_injector = &fi;
    runtime::GemmRuntime rt(ro);
    EXPECT_TRUE(rt.submit(GemmInput::bound(hit.a.view(), hit.b.view(),
                                           hit.c.view()))
                    .get()
                    .cpu_fallback);
    rt.wait_idle();
    add(rt);
  }
  session.stop();

  const CounterRegistry counters = session.counters();
  for (const auto& [field, name] : twins) {
    EXPECT_EQ(counters.value(name), total.*field) << name;
  }
  // Every path above actually ran.
  EXPECT_EQ(total.submitted, 18u);
  EXPECT_EQ(total.splits, 1u);
  EXPECT_EQ(total.coalesced, 8u);
  EXPECT_GT(total.batch_ddr_saved_bytes, 0u);
  EXPECT_GE(total.plan_misses, 3u);
  EXPECT_EQ(total.retries, 1u);
  EXPECT_EQ(total.fallbacks, 1u);
  EXPECT_EQ(total.recomputed_shards, 2u);
  EXPECT_GT(total.sdc_detected, 0u);
  EXPECT_GT(total.checksum_checks, 0u);
}
