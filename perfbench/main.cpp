// perfbench: the repository's benchmark program.
//
//   perfbench --workload <model_sweep|serve_mixed|graph_chain> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench selftest
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced blocks of the same closed loop, prints
// every per-layer metric (or why it is missing), checks the layer
// reconciliation identities and writes a Chrome trace of the benchmark's
// own spans plus the library's trace counters into --out. The last line
// of stdout is always the JSON result; the exit code is non-zero when any
// output or identity check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/util/prng.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace pb {

std::unique_ptr<Workload> make_model_sweep(const Config& cfg);
std::unique_ptr<Workload> make_serve_mixed(const Config& cfg);
std::unique_ptr<Workload> make_graph_chain(const Config& cfg);

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"model_sweep", "serve_mixed",
                                                 "graph_chain"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg) {
  if (name == "model_sweep") return make_model_sweep(cfg);
  if (name == "serve_mixed") return make_serve_mixed(cfg);
  if (name == "graph_chain") return make_graph_chain(cfg);
  return nullptr;
}

std::vector<int> shuffled_epoch(const std::vector<int>& quota,
                                std::uint64_t seed) {
  std::vector<int> e;
  for (std::size_t k = 0; k < quota.size(); ++k) {
    e.insert(e.end(), static_cast<std::size_t>(quota[k]), static_cast<int>(k));
  }
  ftm::Prng rng(seed);
  for (std::size_t i = e.size(); i > 1; --i) {
    std::swap(e[i - 1], e[rng.next_below(i)]);
  }
  return e;
}

namespace {

/// Number of set-ups per run; setup_s is their median.
constexpr int kSetups = 11;
/// Blocks of the untraced timed phase.
constexpr int kBlocks = 10;

/// Per-layer metrics carried in the --trace 1 JSON: the ones every
/// workload can measure. Everything else is printed above the JSON.
const char* const kJsonLayers[] = {
    "runtime.queue_wait_ms.p50",    "runtime.queue_wait_ms.p99",
    "runtime.dispatch_us.p50",      "runtime.plan_hit_ratio",
    "runtime.steals_per_req",       "runtime.cluster_imbalance",
    "runtime.lane_latency_us.p50",  "runtime.lane_latency_us.p99",
    "core.engine_us.p50",           "core.plan_us.p50",
    "core.roofline_frac",           "core.ddr_bytes_per_flop",
    "kernelgen.kernels_generated",  "kernelgen.cache_hit_ratio",
    "kernelgen.calls_per_mflop",    "kernelgen.kernel_cycle_share",
    "kernelgen.stall_share",        "sim.dma_wait_share",
    "sim.dma_transfers_per_mflop",  "sim.gsm_reduce_bytes_per_flop",
    "trace.overhead_pct",
};

/// Every per-layer metric the benchmark defines; a workload that does not
/// set one reports it missing.
const char* const kAllLayers[][2] = {
    {"runtime.submit_us.p50", "us"},       {"runtime.delivery_us.p50", "us"},
    {"core.engine_ns_per_flop", "ns/flop"}, {"core.sim_eff.type1", "%"},
    {"core.sim_eff.type2", "%"},           {"core.sim_eff.type3", "%"},
    {"core.sim_eff.regular", "%"},         {"core.sim_eff.f16", "%"},
    {"core.sim_eff.f64", "%"},             {"graph.run_ms.p50", "ms"},
    {"graph.self_us.p50", "us"},           {"graph.gemm_cycle_share", "ratio"},
    {"graph.ddr_saved_ratio", "ratio"},    {"nodes.input_share", "ratio"},
    {"nodes.compute_share", "ratio"},      {"nodes.reduce_share", "ratio"},
    {"nodes.link_bytes_per_flop", "B/flop"}, {"nodes.gemm_ms.p50", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_build/perfbench-out";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--out") a.out = v;
    else return false;
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

/// sim_gflops of the first epoch, and how many later calls disagreed
/// with the first epoch's simulated cycles at the same position.
struct EpochCheck {
  double sim_gflops = 0;
  std::size_t mismatches = 0;
  bool complete = false;
};

EpochCheck check_epochs(const std::vector<Call>& calls, std::size_t len) {
  EpochCheck e;
  std::vector<std::uint64_t> first(len, 0);
  std::vector<bool> seen(len, false);
  double flops = 0, secs = 0;
  for (const Call& c : calls) {
    const std::size_t pos = c.seq % len;
    if (c.seq < len) {
      first[pos] = c.cycles;
      seen[pos] = true;
      flops += c.flops;
      secs += sim_seconds(c.cycles);
    } else if (seen[pos] && c.cycles != first[pos]) {
      ++e.mismatches;
    }
  }
  e.complete = std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
  e.sim_gflops = secs > 0 ? flops / secs / 1e9 : 0;
  return e;
}

struct Metric {
  std::string name, unit;
  double value;
};

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<double> setup_times(Workload& wl) {
  std::vector<double> s;
  for (int i = 0; i < kSetups; ++i) {
    if (i) wl.teardown();
    const auto t0 = Clock::now();
    wl.setup();
    s.push_back(us_between(t0, Clock::now()) / 1e6);
  }
  return s;
}

/// Host figures of one block of the timed phase.
struct Block {
  double rps, p50_ms, p99_ms, cpu_ms_per_req;
  std::size_t calls;
};

int run_untraced(Workload& wl, const Args& a) {
  const std::vector<double> setups = setup_times(wl);
  // The timed phase runs as kBlocks equal blocks. host_rps, p50 latency
  // and CPU per request are medians over blocks, so a burst of load from
  // outside the process that covers less than half of the run does not
  // move them. p99 pools every call of the run, so it has n/100 samples
  // beyond it.
  Recorder rec;
  std::vector<Block> blocks;
  const auto block_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(a.seconds / kBlocks));
  for (int b = 0; b < kBlocks; ++b) {
    const std::size_t first = rec.calls.size();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    wl.run(t0 + block_len, b == 0 ? wl.epoch().size() : 1, rec);
    const double wall = us_between(t0, Clock::now()) / 1e6;
    const double cpu = cpu_seconds() - cpu0;
    std::vector<double> lat_ms;
    for (std::size_t i = first; i < rec.calls.size(); ++i) {
      lat_ms.push_back(rec.calls[i].latency_us / 1000.0);
    }
    const double n = static_cast<double>(lat_ms.size());
    blocks.push_back({n / wall, percentile(lat_ms, 50), percentile(lat_ms, 99),
                      1000.0 * cpu / n, lat_ms.size()});
  }
  const auto med = [&](double Block::*f) {
    std::vector<double> v;
    for (const Block& b : blocks) v.push_back(b.*f);
    return median(v);
  };

  std::size_t failed = 0;
  std::vector<double> lat_ms;
  for (const Call& c : rec.calls) {
    failed += c.ok ? 0 : 1;
    lat_ms.push_back(c.latency_us / 1000.0);
  }
  const EpochCheck ep = check_epochs(rec.calls, wl.epoch().size());
  const std::size_t n = rec.calls.size();
  const std::vector<Metric> ms = {
      {"sim_gflops", "GFLOP/s", ep.sim_gflops},
      {"host_rps", "requests/s", med(&Block::rps)},
      {"host_latency_p50_ms", "ms", med(&Block::p50_ms)},
      {"host_latency_p99_ms", "ms", percentile(lat_ms, 99)},
      {"host_cpu_ms_per_req", "ms", med(&Block::cpu_ms_per_req)},
      {"setup_s", "s", median(setups)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  const double failed_frac =
      static_cast<double>(failed + ep.mismatches) / static_cast<double>(n);
  std::printf("timed phase: %zu calls in %d blocks; p99 over all %zu calls "
              "(%zu beyond it), other host metrics are medians over blocks\n",
              n, kBlocks, n, n / 100);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::printf("  block %2zu: %6zu calls  %10.3f rps  p50 %9.3f ms  p99 "
                "%9.3f ms (%zu samples)  cpu %8.3f ms/req\n",
                b, blocks[b].calls, blocks[b].rps, blocks[b].p50_ms,
                blocks[b].p99_ms, blocks[b].calls, blocks[b].cpu_ms_per_req);
  }
  std::map<int, std::vector<double>> by_kind;
  for (const Call& c : rec.calls) by_kind[c.kind].push_back(c.latency_us / 1000.0);
  for (const auto& [k, v] : by_kind) {
    std::printf("  %-34s n=%-6zu latency p50 %9.3f ms  p99 %9.3f ms\n",
                wl.kind_label(k).c_str(), v.size(), percentile(v, 50),
                percentile(v, 99));
  }
  std::printf("set-ups (s):");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\nepoch of %zu calls: sim_gflops from the first epoch; %zu "
              "later calls disagreed with its cycles\n",
              wl.epoch().size(), ep.mismatches);
  for (const Metric& m : ms) {
    std::printf("%-22s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-22s %14.6f ratio (base: %zu attempted)\n", "failed_frac",
              failed_frac, n);
  const bool correct = failed == 0 && ep.mismatches == 0 && ep.complete;
  print_json(correct, n, failed + ep.mismatches, ms);
  return correct ? 0 : 1;
}

int run_traced(Workload& wl, const Args& a) {
  wl.setup();
  Recorder rec;
  SpanLog spans;
  ftm::trace::CounterRegistry counters;
  // Alternate untraced and traced blocks so slow drift of the host hits
  // both equally; trace.overhead_pct compares their call rates.
  const double block = std::max(0.25, a.seconds / 20.0);
  double wall[2] = {0, 0};
  std::size_t calls[2] = {0, 0};
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(a.seconds));
  for (int b = 0; Clock::now() < end || b < 2; ++b) {
    const int traced = b % 2;
    const std::size_t before = rec.calls.size();
    const auto t0 = Clock::now();
    const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(block));
    if (traced) {
      ftm::trace::TraceSession session;  // one per block bounds its memory
      session.start();
      rec.spans = &spans;
      wl.run(until, 1, rec);
      rec.spans = nullptr;
      session.stop();
      counters.merge(session.counters());
    } else {
      wl.run(until, b == 0 ? wl.epoch().size() : 1, rec);
    }
    wall[traced] += us_between(t0, Clock::now()) / 1e6;
    calls[traced] += rec.calls.size() - before;
  }

  LayerTable t;
  std::vector<Residual> res;
  rec.spans = &spans;
  wl.layers(rec, counters, t, res);
  const double rps_off = static_cast<double>(calls[0]) / wall[0];
  const double rps_on = static_cast<double>(calls[1]) / wall[1];
  t.set("trace.overhead_pct", "%", 100.0 * (rps_off - rps_on) / rps_off,
        "untraced vs traced host_rps, alternating blocks (" +
            std::to_string(calls[0]) + " / " + std::to_string(calls[1]) +
            " calls)");
  for (const auto& [name, unit] : kAllLayers) {
    if (!t.find(name)) t.missing(name, unit, "not exercised by this workload");
  }
  // Self time per span name, over the traced blocks.
  const std::vector<double> self = spans.self_us();
  std::vector<std::string> names;
  for (const Span& s : spans.spans()) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  for (const std::string& n : names) {
    std::vector<double> v;
    for (std::size_t i = 0; i < self.size(); ++i) {
      if (n == spans.spans()[i].name) v.push_back(self[i]);
    }
    t.set("span." + n + ".self_us.p50", "us", percentile(v, 50),
          "span duration minus child spans (n=" + std::to_string(v.size()) + ")");
  }
  t.print();

  bool ok = true;
  for (const Residual& r : res) {
    std::printf("reconcile: %s: worst residual %.3f %s over %zu samples "
                "(fails below %.3f) %s\n",
                r.identity.c_str(), r.worst, r.unit.c_str(), r.samples,
                -r.tolerance, r.ok() ? "ok" : "FAIL");
    ok = ok && r.ok();
  }
  std::size_t failed = 0;
  for (const Call& c : rec.calls) failed += c.ok ? 0 : 1;

  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  const std::string path = a.out + "/trace_" + wl.name() + "_seed" +
                           std::to_string(a.seed) + ".json";
  if (spans.write_chrome(path, counters)) {
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                spans.spans().size());
  }

  std::vector<Metric> ms;
  for (const char* n : kJsonLayers) {
    const LayerMetric* m = t.find(n);
    if (!m || !m->value || !std::isfinite(*m->value)) {
      std::printf("per-layer metric %s has no value on this workload\n", n);
      ok = false;
      continue;
    }
    ms.push_back({m->name, m->unit, *m->value});
  }
  const bool correct = ok && failed == 0;
  print_json(correct, rec.calls.size(), failed, ms);
  return correct ? 0 : 1;
}

// ---- self-test ---------------------------------------------------------------

struct Trial {
  std::vector<std::string> sequence;
  std::vector<std::uint64_t> cycles;
  double sim_gflops = 0;
  std::size_t failed = 0, attempted = 0;
};

Trial trial(const std::string& name, const Config& cfg) {
  auto wl = make_workload(name, cfg);
  wl->setup();
  Recorder rec;
  wl->run(Clock::now(), 2 * wl->epoch().size(), rec);
  Trial t;
  for (const Call& c : rec.calls) {
    t.sequence.push_back(wl->kind_label(c.kind));
    t.cycles.push_back(c.cycles);
    t.failed += c.ok ? 0 : 1;
  }
  t.attempted = rec.calls.size();
  const EpochCheck ep = check_epochs(rec.calls, wl->epoch().size());
  t.sim_gflops = ep.sim_gflops;
  t.failed += ep.mismatches;
  return t;
}

int selftest() {
  int failures = 0;
  const auto expect = [&](bool cond, const std::string& what) {
    std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
    failures += cond ? 0 : 1;
  };
  for (const std::string& name : workload_names()) {
    Config cfg;
    cfg.seed = 3;
    cfg.tiny = true;
    const Trial a = trial(name, cfg), b = trial(name, cfg);
    expect(a.failed == 0, name + ": clean run has no failed calls");
    expect(a.sequence == b.sequence, name + ": same seed, same call sequence");
    expect(a.cycles == b.cycles,
           name + ": same seed, same per-call simulated cycles");
    expect(a.sim_gflops == b.sim_gflops && a.sim_gflops > 0,
           name + ": same seed, identical sim_gflops");
    Config other = cfg;
    other.seed = 4;
    expect(trial(name, other).sequence != a.sequence,
           name + ": another seed changes the sequence");
    Config bad = cfg;
    bad.corrupt_seq = 1;
    const Trial c = trial(name, bad);
    expect(c.failed == 1 && c.attempted > 0,
           name + ": a corrupted output counts in failed_frac");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  try {
    if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) return selftest();
    Args a;
    if (!parse(argc, argv, a)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <%s|%s|%s> --seed N "
                   "--seconds S --trace 0|1 [--out DIR]\n       perfbench "
                   "selftest\n",
                   workload_names()[0].c_str(), workload_names()[1].c_str(),
                   workload_names()[2].c_str());
      return 2;
    }
    Config cfg;
    cfg.seed = a.seed;
    auto wl = make_workload(a.workload, cfg);
    if (!wl) {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return 2;
    }
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\nmachine: %s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace, machine_descriptor().c_str());
    std::printf("epoch:");
    for (int k : wl->epoch()) std::printf(" %s", wl->kind_label(k).c_str());
    std::printf("\n");
    return a.trace ? run_traced(*wl, a) : run_untraced(*wl, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
