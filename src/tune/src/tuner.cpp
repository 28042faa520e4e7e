#include "ftm/tune/tuner.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "ftm/core/blocking.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::tune {

namespace {

// Search limits: simulator evaluations per shape (pruned candidates are
// free), coordinate-descent sweeps per strategy, the fraction of the
// analytic seed's min-CMR below which a candidate is pruned, and the
// cores every plan is tuned for.
constexpr int kBudget = 96;
constexpr int kRounds = 2;
constexpr double kCmrPrune = 0.5;
constexpr int kCores = 8;

/// One point of the search space: per-strategy *seed* blocks (the dynamic
/// adjuster binds them to the concrete shape) plus the DMA buffering
/// depth.
struct Cand {
  core::Strategy strategy = core::Strategy::Auto;
  core::MBlocks mb;
  core::KBlocks kb;
  core::TBlocks tb;
  int dma = 2;
};

/// A tunable axis: a fixed candidate grid plus get/set accessors into a
/// Cand. Grids are fixed and iterated in order — determinism by design.
struct Axis {
  const char* name;
  std::vector<std::size_t> values;
  std::function<std::size_t(const Cand&)> get;
  std::function<void(Cand&, std::size_t)> set;
};

std::vector<Axis> axes_for(core::Strategy s) {
  using S = core::Strategy;
  std::vector<Axis> ax;
  switch (s) {
    case S::ParallelM:
      ax.push_back({"ms",
                    {6, 8, 10, 12, 14, 16},
                    [](const Cand& c) { return c.mb.ms; },
                    [](Cand& c, std::size_t v) { c.mb.ms = v; }});
      ax.push_back({"ka",
                    {128, 192, 256, 320, 384, 448, 512, 640, 768, 864, 1024},
                    [](const Cand& c) { return c.mb.ka; },
                    [](Cand& c, std::size_t v) { c.mb.ka = v; }});
      break;
    case S::ParallelK:
      ax.push_back({"ms",
                    {6, 8, 10, 12, 14, 16},
                    [](const Cand& c) { return c.kb.ms; },
                    [](Cand& c, std::size_t v) { c.kb.ms = v; }});
      ax.push_back({"ka",
                    {64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048},
                    [](const Cand& c) { return c.kb.ka; },
                    [](Cand& c, std::size_t v) { c.kb.ka = v; }});
      ax.push_back({"reduce_rows",
                    {16, 32, 64, 128, 256},
                    [](const Cand& c) { return c.kb.reduce_rows; },
                    [](Cand& c, std::size_t v) { c.kb.reduce_rows = v; }});
      ax.push_back({"ng",
                    {96, 128, 192, 256, 384, 512},
                    [](const Cand& c) { return c.kb.ng; },
                    [](Cand& c, std::size_t v) { c.kb.ng = v; }});
      ax.push_back({"mg",
                    {128, 256, 512, 1024, 2048},
                    [](const Cand& c) { return c.kb.mg; },
                    [](Cand& c, std::size_t v) { c.kb.mg = v; }});
      break;
    default:  // TGemm
      ax.push_back({"ms",
                    {4, 6, 8, 10, 12},
                    [](const Cand& c) { return c.tb.ms; },
                    [](Cand& c, std::size_t v) { c.tb.ms = v; }});
      ax.push_back({"mg",
                    {128, 256, 384, 512, 768, 1024},
                    [](const Cand& c) { return c.tb.mg; },
                    [](Cand& c, std::size_t v) { c.tb.mg = v; }});
      ax.push_back({"kg",
                    {128, 256, 384, 512, 768, 1024},
                    [](const Cand& c) { return c.tb.kg; },
                    [](Cand& c, std::size_t v) { c.tb.kg = v; }});
      break;
  }
  ax.push_back({"dma_buffers",
                {1, 2},
                [](const Cand& c) { return static_cast<std::size_t>(c.dma); },
                [](Cand& c, std::size_t v) { c.dma = static_cast<int>(v); }});
  return ax;
}

double min_cmr(const core::GemmPlan& p) {
  const int cores = p.cores;
  switch (p.strategy) {
    case core::Strategy::ParallelM:
      return std::min(
          core::cmr_m_outer(p.mblocks.ma, p.mblocks.kg, p.mblocks.ng, cores),
          core::cmr_m_inner(p.mblocks.ma, p.mblocks.ka, p.mblocks.na,
                            cores));
    case core::Strategy::ParallelK:
      return std::min(
          core::cmr_k_outer(p.kblocks.mg, p.kblocks.ka, p.kblocks.ng, cores),
          core::cmr_k_inner(p.kblocks.ma, p.kblocks.ka, p.kblocks.na,
                            cores));
    default: return 0.0;  // TGEMM has no CMR equation; no CMR pruning
  }
}

}  // namespace

Tuner::Tuner(const isa::MachineConfig& mc) : mc_(mc), engine_(mc) {
  FTM_EXPECTS(kCores <= mc.cores_per_cluster);
}

std::uint64_t Tuner::evaluate(const core::GemmPlan& plan, bool pingpong,
                              std::size_t m, std::size_t n, std::size_t k) {
  core::FtimmOptions o;
  o.cores = kCores;
  o.pingpong = pingpong;
  o.functional = false;  // lane-clock makespan only — no data movement
  const core::GemmResult r =
      engine_.sgemm_planned(core::GemmInput::shape_only(m, n, k), plan, o);
  return r.cycles;
}

TuneReport Tuner::tune(std::size_t m, std::size_t n, std::size_t k) {
  FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1);
  FTM_TRACE_COUNTER("tune.shapes", 1);
  TuneReport rep;

  // Binds a candidate's seed blocks to the concrete shape with the
  // engine's own adjuster + capacity audit.
  const auto bind = [&](const Cand& c) -> std::optional<core::GemmPlan> {
    core::GemmPlan p;
    p.strategy = c.strategy;
    p.cores = kCores;
    try {
      switch (c.strategy) {
        case core::Strategy::ParallelM:
          p.mblocks = core::adjust_m_blocks(c.mb, m, n, k, mc_, kCores);
          break;
        case core::Strategy::ParallelK:
          p.kblocks = core::adjust_k_blocks(c.kb, m, n, k, mc_, kCores);
          break;
        default:
          p.tblocks = c.tb;
          core::check_t_blocks(p.tblocks, mc_);
          break;
      }
    } catch (const ContractViolation&) {
      return std::nullopt;  // capacity audit pruned it
    }
    return p;
  };

  // Analytic seeds (dispatcher defaults): the starting point of every
  // descent and the first candidate evaluated.
  const auto seed_for = [&](core::Strategy s) {
    Cand c;
    c.strategy = s;
    c.mb = core::initial_m_blocks(mc_);
    c.kb = core::initial_k_blocks(mc_);
    c.tb = core::TBlocks{};
    c.dma = 2;
    return c;
  };

  const core::Strategy def_strategy = engine_.choose_strategy(m, n, k);
  const Cand def_cand = seed_for(def_strategy);
  const auto def_plan = bind(def_cand);
  FTM_ASSERT(def_plan.has_value());  // the paper defaults always bind
  const std::uint64_t def_cycles =
      evaluate(*def_plan, def_cand.dma >= 2, m, n, k);
  ++rep.evaluated;
  FTM_TRACE_COUNTER("tune.search_steps", 1);

  std::uint64_t best_cycles = def_cycles;
  Cand best = def_cand;

  // Race the strategies, dispatcher's pick first (it gets the budget's
  // best coverage and anchors the zero-regression guarantee).
  std::vector<core::Strategy> order{def_strategy};
  for (core::Strategy s : {core::Strategy::ParallelM,
                           core::Strategy::ParallelK, core::Strategy::TGemm}) {
    if (s != def_strategy) order.push_back(s);
  }

  for (const core::Strategy s : order) {
    Cand cur = seed_for(s);
    std::uint64_t cur_cycles;
    if (s == def_strategy) {
      cur_cycles = def_cycles;
    } else {
      const auto p = bind(cur);
      if (!p) {
        ++rep.pruned;
        FTM_TRACE_COUNTER("tune.pruned", 1);
        continue;
      }
      if (rep.evaluated >= kBudget) break;
      cur_cycles = evaluate(*p, cur.dma >= 2, m, n, k);
      ++rep.evaluated;
      FTM_TRACE_COUNTER("tune.search_steps", 1);
    }
    // CMR reference: the analytic seed's score for this strategy.
    double cmr_ref = 0.0;
    if (const auto p = bind(cur)) cmr_ref = min_cmr(*p);

    const std::vector<Axis> axes = axes_for(s);
    for (int round = 0; round < kRounds; ++round) {
      bool improved = false;
      for (const Axis& axis : axes) {
        for (const std::size_t v : axis.values) {
          if (v == axis.get(cur)) continue;
          Cand cand = cur;
          axis.set(cand, v);
          const auto p = bind(cand);
          if (!p) {
            ++rep.pruned;
            FTM_TRACE_COUNTER("tune.pruned", 1);
            continue;
          }
          if (cmr_ref > 0 && min_cmr(*p) < kCmrPrune * cmr_ref) {
            ++rep.pruned;
            FTM_TRACE_COUNTER("tune.pruned", 1);
            continue;
          }
          if (rep.evaluated >= kBudget) goto strategy_done;
          const std::uint64_t cycles = evaluate(*p, cand.dma >= 2, m, n, k);
          ++rep.evaluated;
          FTM_TRACE_COUNTER("tune.search_steps", 1);
          if (cycles < cur_cycles) {  // strict: ties keep the earlier point
            cur_cycles = cycles;
            cur = cand;
            improved = true;
          }
        }
      }
      if (!improved) break;
    }
  strategy_done:
    if (cur_cycles < best_cycles) {
      best_cycles = cur_cycles;
      best = cur;
    }
    if (rep.evaluated >= kBudget) break;
  }

  const auto best_plan = bind(best);
  FTM_ASSERT(best_plan.has_value());  // every accepted candidate bound
  rep.plan = *best_plan;
  rep.pingpong = best.dma >= 2;
  rep.tuned_cycles = best_cycles;
  rep.default_cycles = def_cycles;
  return rep;
}

}  // namespace ftm::tune
