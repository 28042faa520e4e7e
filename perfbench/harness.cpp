#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/trace/chrome.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace pb {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

std::string machine_descriptor() {
  std::string s = "nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += " hostsimd=";
  s += ftm::kernelgen::hostsimd::to_string(
      ftm::kernelgen::hostsimd::active_tier());
#if defined(__clang__)
  s += " compiler=clang-" __clang_version__;
#elif defined(__GNUC__)
  s += " compiler=gcc-" __VERSION__;
#endif
  s += " build=" PB_BUILD_TYPE;
  return s;
}

// ---- spans ------------------------------------------------------------------

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::begin(const char* name, std::uint64_t req, int parent) {
  Span s;
  s.name = name;
  s.req = req;
  s.parent = parent;
  s.t0_us = us_between(origin_, Clock::now());
  s.t1_us = s.t0_us;
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int idx) {
  spans_[static_cast<std::size_t>(idx)].t1_us = us_between(origin_, Clock::now());
}

std::vector<double> SpanLog::self_us() const {
  std::vector<std::vector<int>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) kids[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    std::vector<std::pair<double, double>> iv;
    for (int k : kids[i]) {
      const Span& c = spans_[static_cast<std::size_t>(k)];
      const double a = std::max(c.t0_us, p.t0_us), b = std::min(c.t1_us, p.t1_us);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = (p.t1_us - p.t0_us) - covered;
  }
  return self;
}

bool SpanLog::write_chrome(const std::string& path,
                           const ftm::trace::CounterRegistry& counters) const {
  // Each traced block had its own session; this one gathers the spans and
  // the merged counters for the library's exporter. Counter names are
  // recorded by pointer, so `named` outlives the session.
  const auto named = counters.sorted();
  ftm::trace::TraceSession out;
  out.start();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ftm::trace::Event e;
    e.name = s.name;
    e.cat = "perfbench";
    e.ts = static_cast<std::uint64_t>(std::floor(s.t0_us));
    e.dur = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(s.t1_us)) - e.ts);
    e.track = ftm::trace::TrackKind::Runtime;
    // Outstanding requests overlap, and spans on one lane must nest, so a
    // request's spans go on lane req % 8. The exporter names Runtime lanes
    // "cluster <n> requests"; here <n> is that caller lane, not a cluster.
    e.cluster = static_cast<std::int32_t>(s.req % 8);
    // span and parent are 1-based indices into the log; parent 0 is none.
    e.arg("req", s.req)
        .arg("span", i + 1)
        .arg("parent", static_cast<std::uint64_t>(s.parent + 1));
    out.record(e);
  }
  for (const auto& [name, v] : named) out.count(name.c_str(), v);
  out.stop();
  return ftm::trace::write_chrome_json(out, path);
}

// ---- layer table -------------------------------------------------------------

void LayerTable::set(const std::string& name, const std::string& unit,
                     double v, const std::string& source) {
  rows_.push_back({name, unit, v, source});
}

void LayerTable::missing(const std::string& name, const std::string& unit,
                         const std::string& reason) {
  rows_.push_back({name, unit, std::nullopt, reason});
}

const LayerMetric* LayerTable::find(const std::string& name) const {
  for (const LayerMetric& m : rows_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void LayerTable::print() const {
  std::printf("%-34s %-14s %14s  %s\n", "layer metric", "unit", "value",
              "source / reason");
  for (const LayerMetric& m : rows_) {
    if (m.value) {
      std::printf("%-34s %-14s %14.6g  %s\n", m.name.c_str(), m.unit.c_str(),
                  *m.value, m.note.c_str());
    } else {
      std::printf("%-34s %-14s %14s  %s\n", m.name.c_str(), m.unit.c_str(),
                  "missing", m.note.c_str());
    }
  }
}

}  // namespace pb
