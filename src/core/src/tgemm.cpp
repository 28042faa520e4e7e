#include <algorithm>
#include <vector>

#include "ftm/core/strategies.hpp"
#include "strategy_common.hpp"

namespace ftm::core {

using detail::RunCtx;

// Algorithm 1 (TGEMM). Loop nest:
//   for i (m_g blocks of M)
//     for j (k_g blocks of K)          <- A panel -> GSM, ping-pong
//       for t (n_a blocks of N) PARALLEL over cores
//         B block -> AM, C block -> AM (per core, B ping-ponged over t)
//         for ii (m_s slices)          <- A slice GSM -> SM, ping-pong
//           micro-kernel (always na = 96: implicit padding)
//         C block -> DDR
//
// With N <= 96 the parallel t loop has a single iteration, so only one core
// works — the weakness ftIMM's strategies remove.
GemmResult run_tgemm(sim::Cluster& cl, kernelgen::KernelCache& cache,
                     const GemmInput& in, const TBlocks& tb,
                     const FtimmOptions& opt) {
  check_t_blocks(tb, cl.machine());
  RunCtx ctx(cl, cache, opt);
  const bool fn = ctx.fn;
  const int P = opt.cores;
  const std::size_t M = in.m, N = in.n, K = in.k;
  const std::size_t pitch = am_pitch_floats(tb.na);  // floats (96)

  // --- Provisioning ---
  // GSM: double-buffered A panel.
  sim::Region ag[2];
  for (auto& r : ag) r = cl.gsm().alloc(tb.mg * tb.kg * sizeof(float));
  // Per core: AM = C tile + double-buffered B tile; SM = double-buffered
  // A slice.
  struct PerCore {
    sim::Region ba[2], ca, as[2];
  };
  std::vector<PerCore> pc(P);
  for (int c = 0; c < P; ++c) {
    for (auto& r : pc[c].ba)
      r = cl.core(c).am().alloc(tb.kg * pitch * sizeof(float));
    pc[c].ca = cl.core(c).am().alloc(tb.mg * pitch * sizeof(float));
    for (auto& r : pc[c].as)
      r = cl.core(c).sm().alloc(tb.ms * tb.kg * sizeof(float));
  }

  // Flatten the (i, j) panel loop for A ping-pong.
  struct Panel {
    std::size_t i0, mg_t, j0, kg_t;
  };
  std::vector<Panel> panels;
  for (std::size_t i0 = 0; i0 < M; i0 += tb.mg) {
    for (std::size_t j0 = 0; j0 < K; j0 += tb.kg) {
      panels.push_back({i0, std::min(tb.mg, M - i0), j0,
                        std::min(tb.kg, K - j0)});
    }
  }

  auto load_ag = [&](std::size_t idx) -> sim::DmaHandle {
    const Panel& p = panels[idx];
    sim::DmaRequest req;
    req.route = sim::DmaRoute::DdrToSpm;
    req.rows = p.mg_t;
    req.row_bytes = p.kg_t * sizeof(float);
    req.src_stride = in.a.ld() * sizeof(float);
    req.dst_stride = p.kg_t * sizeof(float);
    // Shared destination: every core reads this GSM panel, so the copy is
    // serialized against all deferred per-core work (dma_shared).
    return ctx.dma_shared(0, req, detail::host_src(in.a, p.i0, p.j0, fn),
                          fn ? cl.gsm().raw(ag[idx % 2].offset,
                                            p.mg_t * p.kg_t * sizeof(float))
                             : nullptr);
  };

  const std::size_t nt = (N + tb.na - 1) / tb.na;
  ctx.set_workers(nt);

  std::vector<sim::DmaHandle> ag_handle(panels.size());
  if (!panels.empty()) ag_handle[0] = load_ag(0);

  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const Panel& p = panels[pi];
    // Prefetch the next A panel into the other GSM buffer.
    if (pi + 1 < panels.size()) ag_handle[pi + 1] = load_ag(pi + 1);
    const std::uint64_t ag_ready = cl.timeline(0).done_time(ag_handle[pi]);

    for (int core = 0; core < P; ++core) {
      auto& tl = cl.timeline(core);
      tl.advance_to(ag_ready);  // A panel is shared

      // The core's share of t blocks, with B ping-ponged across them.
      std::vector<std::size_t> mine;
      for (std::size_t t = 0; t < nt; ++t) {
        if (detail::owns(core, t, P)) mine.push_back(t);
      }
      if (mine.empty()) continue;

      auto load_b = [&](std::size_t which) -> sim::DmaHandle {
        const std::size_t t0 = mine[which] * tb.na;
        const std::size_t nw = std::min(tb.na, N - t0);
        sim::DmaRequest req;
        req.route = sim::DmaRoute::DdrToSpm;
        req.rows = p.kg_t;
        req.row_bytes = nw * sizeof(float);
        req.src_stride = in.b.ld() * sizeof(float);
        req.dst_stride = pitch * sizeof(float);
        return ctx.dma(core, req, detail::host_src(in.b, p.j0, t0, fn),
                       fn ? cl.core(core).am().raw(
                                pc[core].ba[which % 2].offset,
                                p.kg_t * pitch * sizeof(float))
                          : nullptr);
      };

      std::vector<sim::DmaHandle> bh(mine.size());
      bh[0] = load_b(0);

      for (std::size_t w = 0; w < mine.size(); ++w) {
        if (w + 1 < mine.size()) bh[w + 1] = load_b(w + 1);
        const std::size_t t0 = mine[w] * tb.na;
        const std::size_t nw = std::min(tb.na, N - t0);
        const std::uint64_t ph0 = ctx.phase_begin(core);

        // C tile in.
        sim::DmaRequest creq;
        creq.route = sim::DmaRoute::DdrToSpm;
        creq.rows = p.mg_t;
        creq.row_bytes = nw * sizeof(float);
        creq.src_stride = in.c.ld() * sizeof(float);
        creq.dst_stride = pitch * sizeof(float);
        const auto ch =
            ctx.dma(core, creq, detail::host_src(in.c, p.i0, t0, fn),
                    fn ? cl.core(core).am().raw(pc[core].ca.offset,
                                                p.mg_t * pitch * sizeof(float))
                       : nullptr);
        ctx.wait(core, bh[w]);
        ctx.wait(core, ch);

        // A slices GSM -> SM, ping-ponged over ii.
        const std::size_t slices = (p.mg_t + tb.ms - 1) / tb.ms;
        auto load_as = [&](std::size_t s) -> sim::DmaHandle {
          const std::size_t ii = s * tb.ms;
          const std::size_t mrows = std::min(tb.ms, p.mg_t - ii);
          sim::DmaRequest req;
          req.route = sim::DmaRoute::GsmToSpm;
          req.rows = mrows;
          req.row_bytes = p.kg_t * sizeof(float);
          req.src_stride = p.kg_t * sizeof(float);
          req.dst_stride = p.kg_t * sizeof(float);
          return ctx.dma(
              core, req,
              fn ? cl.gsm().raw(ag[pi % 2].offset +
                                    ii * p.kg_t * sizeof(float),
                                mrows * p.kg_t * sizeof(float))
                 : nullptr,
              fn ? cl.core(core).sm().raw(pc[core].as[s % 2].offset,
                                          mrows * p.kg_t * sizeof(float))
                 : nullptr);
        };
        sim::DmaHandle ah = load_as(0);
        for (std::size_t s = 0; s < slices; ++s) {
          const std::size_t ii = s * tb.ms;
          const std::size_t mrows = std::min(tb.ms, p.mg_t - ii);
          ctx.wait(core, ah);
          if (s + 1 < slices) ah = load_as(s + 1);
          kernelgen::KernelSpec spec;
          spec.ms = static_cast<int>(mrows);
          spec.ka = static_cast<int>(p.kg_t);
          spec.na = static_cast<int>(tb.na);  // TGEMM's implicit padding
          const auto& uk = ctx.cache.get(spec);
          ctx.kernel(
              core, uk,
              fn ? cl.core(core).sm().f32(pc[core].as[s % 2].offset,
                                          mrows * p.kg_t)
                 : nullptr,
              fn ? cl.core(core).am().f32(pc[core].ba[w % 2].offset,
                                          p.kg_t * pitch)
                 : nullptr,
              fn ? cl.core(core).am().f32(
                       pc[core].ca.offset + ii * pitch * sizeof(float),
                       mrows * pitch)
                 : nullptr);
        }

        // C tile out.
        sim::DmaRequest oreq;
        oreq.route = sim::DmaRoute::SpmToDdr;
        oreq.rows = p.mg_t;
        oreq.row_bytes = nw * sizeof(float);
        oreq.src_stride = pitch * sizeof(float);
        oreq.dst_stride = in.c.ld() * sizeof(float);
        const auto oh =
            ctx.dma(core, oreq,
                    fn ? cl.core(core).am().raw(pc[core].ca.offset,
                                                p.mg_t * pitch * sizeof(float))
                       : nullptr,
                    detail::host_dst(in.c, p.i0, t0, fn));
        ctx.wait(core, oh);  // C must land before the next panel accumulates
        ctx.phase_end(core, "c-tile", ph0);
      }
    }
  }

  return ctx.finish(in.m, in.n, in.k, Strategy::TGemm);
}

}  // namespace ftm::core
