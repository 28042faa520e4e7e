// ftm_bench: every table, figure, ablation and gate of the reproduction
// (EXPERIMENTS.md has the suite-by-suite index).
//
//   ftm_bench [--smoke] [--full] [--json FILE] [--trace FILE]
//             [--fault-rate R] [--sdc-rate R] [suite ...]
//
// With no suite named it runs all of them. A non-smoke run writes each
// suite's CSV into the current directory; --smoke shrinks the slow
// sweeps and writes none. --json collects the schema-1 records of the
// gate, nodes and replay suites into one file for tools/bench_compare.py;
// --trace records one trace session across the suites run. Exit status
// is nonzero when any gate check or figure claim fails.
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "ftm/trace/chrome.hpp"
#include "ftm/trace/trace.hpp"
#include "harness.hpp"

using namespace ftm;
using namespace ftm::bench;

namespace {

struct Suite {
  const char* name;
  void (*run)(Ctx&);
};

const Suite kSuites[] = {
    {"tables", suite_tables},
    {"fig3", suite_fig3},
    {"fig4", suite_fig4},
    {"fig5", suite_fig5},
    {"fig6", suite_fig6},
    {"fig7", suite_fig7},
    {"ablation", suite_ablation},
    {"fp64", suite_fp64},
    {"sensitivity", suite_sensitivity},
    {"batched", suite_batched},
    {"runtime", suite_runtime},
    {"replay", suite_replay},
    {"sdc", suite_sdc},
    {"graph", suite_graph},
    {"nodes", suite_nodes},
    {"mixed", suite_mixed},
    {"host", suite_host},
    {"trace_overhead", suite_trace_overhead},
    {"gate", suite_gate},
};

int usage(const std::string& error) {
  std::fprintf(stderr,
               "ftm_bench: %s\n"
               "usage: ftm_bench [--smoke] [--full] [--json FILE] "
               "[--trace FILE] [--fault-rate R] [--sdc-rate R] [suite ...]\n"
               "suites:",
               error.c_str());
  for (const Suite& s : kSuites) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool write_json(const std::vector<Record>& records, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"schema\": 1,\n  \"entries\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    f << "    {\"shape\": \"" << r.shape << "\", \"variant\": \""
      << r.variant << "\", \"cycles\": " << r.cycles;
    if (r.informational) {
      f << ", \"informational\": true}";
    } else {
      f << ", \"wall_us\": " << static_cast<std::uint64_t>(r.wall_us) << "}";
    }
    f << (i + 1 < records.size() ? ",\n" : "\n");
  }
  f << "  ]\n}\n";
  return f.good();
}

}  // namespace

namespace ftm::bench {

void Ctx::csv(const Table& t, const std::string& path) const {
  if (smoke) return;
  t.write_csv(path);
  std::printf("CSV written to %s\n", path.c_str());
}

bool Ctx::check(bool ok, const char* fmt, ...) {
  if (ok) return true;
  ++failures;
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "FAIL: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  return false;
}

std::string shape_name(std::size_t m, std::size_t n, std::size_t k) {
  return std::to_string(m) + "x" + std::to_string(n) + "x" +
         std::to_string(k);
}

core::FtimmOptions timing(int cores) {
  core::FtimmOptions opt;
  opt.cores = cores;
  opt.functional = false;
  return opt;
}

}  // namespace ftm::bench

int main(int argc, char** argv) {
  Ctx ctx;
  std::string json, trace_path;
  std::vector<const Suite*> run;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      const Suite* found = nullptr;
      for (const Suite& s : kSuites) {
        if (arg == s.name) found = &s;
      }
      if (found == nullptr) return usage("unknown suite '" + arg + "'");
      run.push_back(found);
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    if (arg == "smoke" || arg == "full") {
      if (eq != std::string::npos) return usage("--" + arg + " takes no value");
      (arg == "smoke" ? ctx.smoke : ctx.full) = true;
      continue;
    }
    if (arg != "json" && arg != "trace" && arg != "fault-rate" &&
        arg != "sdc-rate") {
      return usage("unknown flag --" + arg);
    }
    if (eq == std::string::npos) {
      if (i + 1 == argc) return usage("--" + arg + " needs a value");
      value = argv[++i];
    }
    if (arg == "json") {
      json = value;
    } else if (arg == "trace") {
      trace_path = value;
    } else {
      char* end = nullptr;
      const double rate = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(rate >= 0)) {
        return usage("--" + arg + " needs a rate >= 0, got '" + value + "'");
      }
      (arg == "fault-rate" ? ctx.fault_rate : ctx.sdc_rate) = rate;
    }
  }
  if (run.empty()) {
    for (const Suite& s : kSuites) run.push_back(&s);
  }

  trace::TraceSession session;
  if (!trace_path.empty()) session.start();
  std::vector<std::string> failed;
  for (const Suite* s : run) {
    print_banner(std::string("suite ") + s->name);
    const int before = ctx.failures;
    try {
      s->run(ctx);
    } catch (const std::exception& e) {
      ctx.check(false, "%s threw: %s", s->name, e.what());
    }
    if (ctx.failures != before) failed.push_back(s->name);
  }
  if (session.active()) {
    session.stop();
    trace::write_chrome_json(session, trace_path);
    std::printf("trace: %zu events -> %s\n", session.event_count(),
                trace_path.c_str());
    session.summary().print("Trace summary");
  }
  if (!json.empty() &&
      ctx.check(write_json(ctx.records, json), "cannot write %s",
                json.c_str())) {
    std::printf("wrote %s (%zu entries)\n", json.c_str(), ctx.records.size());
  }
  if (ctx.failures > 0) {
    std::fprintf(stderr, "ftm_bench: %d check(s) failed in:", ctx.failures);
    for (const std::string& name : failed) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  std::printf("ftm_bench: %zu suite(s) ok\n", run.size());
  return 0;
}
