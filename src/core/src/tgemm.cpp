#include <algorithm>
#include <vector>

#include "ftm/core/strategies.hpp"
#include "strategy_common.hpp"

namespace ftm::core {

using detail::CoreBufs;
using detail::Endpoint;
using detail::host;
using detail::pad;
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
  const std::size_t M = in.m, N = in.n, K = in.k;
  const std::size_t f = sizeof(float);
  const std::size_t pitch = am_pitch_floats(tb.na) * f;  // 96 floats

  // --- Provisioning ---
  // GSM: double-buffered A panel. Per core: AM = C tile + double-buffered
  // B tile; SM = double-buffered A slice.
  sim::Region ag[2];
  for (auto& r : ag) r = cl.gsm().alloc(tb.mg * tb.kg * f);
  const std::vector<CoreBufs> pc =
      ctx.provision(tb.mg * pitch, tb.kg * pitch, tb.ms * tb.kg * f);

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

  // Shared destination: every core reads this GSM panel, so the copy is
  // serialized against all deferred per-core work (dma_shared).
  auto load_ag = [&](std::size_t idx) -> sim::DmaHandle {
    const Panel& p = panels[idx];
    return ctx.dma_shared(0, p.mg_t, p.kg_t * f, host(in.a, p.i0, p.j0),
                          pad(cl.gsm(), ag[idx % 2].offset, p.kg_t * f));
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
    const Endpoint a_panel = pad(cl.gsm(), ag[pi % 2].offset, p.kg_t * f);

    for (int core = 0; core < opt.cores; ++core) {
      cl.timeline(core).advance_to(ag_ready);  // A panel is shared

      // The core's share of t blocks, with B ping-ponged across them.
      const std::size_t mine = ctx.share(core, nt);
      if (mine == 0) continue;
      sim::Scratchpad& am = cl.core(core).am();
      const CoreBufs& buf = pc[core];
      const Endpoint ca = pad(am, buf.ca.offset, pitch);

      auto t_block = [&](std::size_t w) {
        return (core + w * opt.cores) * tb.na;
      };
      auto load_b = [&](std::size_t w) -> sim::DmaHandle {
        const std::size_t t0 = t_block(w);
        return ctx.dma(core, p.kg_t, std::min(tb.na, N - t0) * f,
                       host(in.b, p.j0, t0),
                       pad(am, buf.ba[w % 2].offset, pitch));
      };

      sim::DmaHandle bh = load_b(0);
      for (std::size_t w = 0; w < mine; ++w) {
        const sim::DmaHandle next = w + 1 < mine ? load_b(w + 1) : 0;
        const std::size_t t0 = t_block(w);
        const std::size_t nw = std::min(tb.na, N - t0);
        const std::uint64_t ph0 = ctx.phase_begin(core);

        // C tile in.
        const auto ch = ctx.dma(core, p.mg_t, nw * f, host(in.c, p.i0, t0), ca);
        ctx.wait(core, bh);
        ctx.wait(core, ch);

        // A slices GSM -> SM, ping-ponged over ii; the kernel always runs
        // na = 96 wide (TGEMM's implicit padding).
        ctx.slices(core, buf, a_panel, p.mg_t, p.kg_t, tb.ms, tb.na, pitch,
                   w % 2, ElemLayout{});

        // C tile out; it must land before the next panel accumulates.
        ctx.wait(core,
                 ctx.dma(core, p.mg_t, nw * f, ca, host(in.c, p.i0, t0)));
        ctx.phase_end(core, "c-tile", ph0);
        bh = next;
      }
    }
  }

  return ctx.finish(in.m, in.n, in.k, Strategy::TGemm);
}

}  // namespace ftm::core
