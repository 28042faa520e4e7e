#include <algorithm>
#include <vector>

#include "ftm/core/strategies.hpp"
#include "strategy_common.hpp"

namespace ftm::core {

using detail::RunCtx;

GemmResult run_strategy_m(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const GemmInput& in, const MBlocks& mb,
                          const FtimmOptions& opt) {
  const MOperands op{in.m,        in.n,        in.k,
                     in.a.data(), in.b.data(), in.c.data(),
                     in.a.ld(),   in.b.ld(),   in.c.ld()};
  return run_strategy_m(cl, cache, op, mb, ElemLayout{}, opt);
}

// Algorithm 4: M-dimension parallelization.
//   for i (n_g blocks of N)
//     for j (k_g blocks of K)           <- B panel -> GSM, ping-pong
//       for t (m_a blocks of M) PARALLEL over cores
//         for ii (n_a blocks of n_g)
//           C tile (m_a x n_a) -> AM
//           for jj (k_a blocks of k_g)  <- B_a GSM -> AM, ping-pong
//             for tt (m_s slices)       <- A_s DDR -> SM, ping-pong
//               micro-kernel (exact n_a, no padding)
//           C tile -> DDR
// Every size below is in bytes of the layout's elements; a B row covers
// `kr` k steps, so B row counts and offsets along K are divided by kr.
GemmResult run_strategy_m(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const MOperands& in, const MBlocks& mb,
                          const ElemLayout& l, const FtimmOptions& opt) {
  check_m_blocks(mb, cl.machine(), l);
  RunCtx ctx(cl, cache, opt);
  const bool fn = ctx.fn;
  const int P = opt.cores;
  const std::size_t M = in.m, N = in.n, K = in.k;
  const std::size_t kr = l.k_per_row, ab = l.a_bytes, cb = l.c_bytes;
  const std::size_t brow = l.b_row_bytes();
  const std::size_t pitch_max = l.pitch_bytes(mb.na);
  const auto* A = static_cast<const std::uint8_t*>(in.a);
  const auto* B = static_cast<const std::uint8_t*>(in.b);
  auto* C = static_cast<std::uint8_t*>(in.c);

  // --- Provisioning ---
  sim::Region bg[2];
  for (auto& r : bg) r = cl.gsm().alloc(mb.kg / kr * mb.ng * brow);
  struct PerCore {
    sim::Region ca, ba[2], as[2];
  };
  std::vector<PerCore> pc(P);
  for (int c = 0; c < P; ++c) {
    pc[c].ca = cl.core(c).am().alloc(mb.ma * pitch_max);
    for (auto& r : pc[c].ba)
      r = cl.core(c).am().alloc(mb.ka / kr * pitch_max);
    for (auto& r : pc[c].as) r = cl.core(c).sm().alloc(mb.ms * mb.ka * ab);
  }

  struct Panel {
    std::size_t i0, ng_t, j0, kg_t;
  };
  std::vector<Panel> panels;
  for (std::size_t i0 = 0; i0 < N; i0 += mb.ng) {
    for (std::size_t j0 = 0; j0 < K; j0 += mb.kg) {
      panels.push_back({i0, std::min(mb.ng, N - i0), j0,
                        std::min(mb.kg, K - j0)});
    }
  }

  auto load_bg = [&](std::size_t idx) -> sim::DmaHandle {
    const Panel& p = panels[idx];
    sim::DmaRequest req;
    req.route = sim::DmaRoute::DdrToSpm;
    req.rows = p.kg_t / kr;
    req.row_bytes = p.ng_t * brow;
    req.src_stride = in.ldb * brow;
    req.dst_stride = p.ng_t * brow;
    // Shared destination: every core reads this GSM panel, so the copy is
    // serialized against all deferred per-core work (dma_shared).
    return ctx.dma_shared(
        0, req, fn ? B + (p.j0 / kr * in.ldb + p.i0) * brow : nullptr,
        fn ? cl.gsm().raw(bg[idx % 2].offset, p.kg_t / kr * p.ng_t * brow)
           : nullptr);
  };

  const std::size_t ntb = (M + mb.ma - 1) / mb.ma;  // parallel t blocks
  ctx.set_workers(ntb);

  std::vector<sim::DmaHandle> bg_handle(panels.size());
  if (!panels.empty()) bg_handle[0] = load_bg(0);

  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const Panel& p = panels[pi];
    if (pi + 1 < panels.size()) bg_handle[pi + 1] = load_bg(pi + 1);
    const std::uint64_t bg_ready = cl.timeline(0).done_time(bg_handle[pi]);
    const std::size_t bg_off = bg[pi % 2].offset;

    for (int core = 0; core < P; ++core) {
      auto& tl = cl.timeline(core);
      tl.advance_to(bg_ready);
      sim::Scratchpad& am = cl.core(core).am();
      sim::Scratchpad& sm = cl.core(core).sm();

      for (std::size_t tb = 0; tb < ntb; ++tb) {
        if (!detail::owns(core, tb, P)) continue;
        const std::size_t t0 = tb * mb.ma;
        const std::size_t ma_t = std::min(mb.ma, M - t0);

        for (std::size_t ii = 0; ii < p.ng_t; ii += mb.na) {
          const std::size_t na_t = std::min(mb.na, p.ng_t - ii);
          const std::size_t pitch = l.pitch_bytes(na_t);
          std::uint8_t* c_tile =
              fn ? C + (t0 * in.ldc + p.i0 + ii) * cb : nullptr;
          std::uint8_t* ca =
              fn ? am.raw(pc[core].ca.offset, ma_t * pitch) : nullptr;
          const std::uint64_t ph0 = ctx.phase_begin(core);

          // C tile in.
          sim::DmaRequest creq;
          creq.route = sim::DmaRoute::DdrToSpm;
          creq.rows = ma_t;
          creq.row_bytes = na_t * cb;
          creq.src_stride = in.ldc * cb;
          creq.dst_stride = pitch;
          const auto ch = ctx.dma(core, creq, c_tile, ca);

          // B_a tiles from GSM, ping-ponged over jj.
          const std::size_t njj = (p.kg_t + mb.ka - 1) / mb.ka;
          auto load_ba = [&](std::size_t jb) -> sim::DmaHandle {
            const std::size_t jj = jb * mb.ka;
            const std::size_t rows = std::min(mb.ka, p.kg_t - jj) / kr;
            sim::DmaRequest req;
            req.route = sim::DmaRoute::GsmToSpm;
            req.rows = rows;
            req.row_bytes = na_t * brow;
            req.src_stride = p.ng_t * brow;
            req.dst_stride = pitch;
            return ctx.dma(
                core, req,
                fn ? cl.gsm().raw(bg_off + (jj / kr * p.ng_t + ii) * brow,
                                  ((rows - 1) * p.ng_t + na_t) * brow)
                   : nullptr,
                fn ? am.raw(pc[core].ba[jb % 2].offset, rows * pitch)
                   : nullptr);
          };
          sim::DmaHandle bh = load_ba(0);
          ctx.wait(core, ch);

          for (std::size_t jb = 0; jb < njj; ++jb) {
            const std::size_t jj = jb * mb.ka;
            const std::size_t ka_t = std::min(mb.ka, p.kg_t - jj);
            ctx.wait(core, bh);
            if (jb + 1 < njj) bh = load_ba(jb + 1);

            // A_s slices from DDR, ping-ponged over tt.
            const std::size_t slices = (ma_t + mb.ms - 1) / mb.ms;
            auto load_as = [&](std::size_t s) -> sim::DmaHandle {
              const std::size_t tt = s * mb.ms;
              const std::size_t mrows = std::min(mb.ms, ma_t - tt);
              sim::DmaRequest req;
              req.route = sim::DmaRoute::DdrToSpm;
              req.rows = mrows;
              req.row_bytes = ka_t * ab;
              req.src_stride = in.lda * ab;
              req.dst_stride = ka_t * ab;
              return ctx.dma(
                  core, req,
                  fn ? A + ((t0 + tt) * in.lda + p.j0 + jj) * ab : nullptr,
                  fn ? sm.raw(pc[core].as[s % 2].offset, mrows * ka_t * ab)
                     : nullptr);
            };
            sim::DmaHandle ah = load_as(0);
            for (std::size_t s = 0; s < slices; ++s) {
              const std::size_t tt = s * mb.ms;
              const std::size_t mrows = std::min(mb.ms, ma_t - tt);
              ctx.wait(core, ah);
              if (s + 1 < slices) ah = load_as(s + 1);
              kernelgen::KernelSpec spec;
              spec.ms = static_cast<int>(mrows);
              spec.ka = static_cast<int>(ka_t);
              spec.na = static_cast<int>(na_t);
              spec.dtype = l.dtype;
              const auto& uk = ctx.cache.get(spec);
              ctx.kernel(
                  core, uk,
                  fn ? sm.raw(pc[core].as[s % 2].offset, mrows * ka_t * ab)
                     : nullptr,
                  fn ? am.raw(pc[core].ba[jb % 2].offset, ka_t / kr * pitch)
                     : nullptr,
                  fn ? am.raw(pc[core].ca.offset + tt * pitch, mrows * pitch)
                     : nullptr);
            }
          }

          // C tile out.
          sim::DmaRequest oreq;
          oreq.route = sim::DmaRoute::SpmToDdr;
          oreq.rows = ma_t;
          oreq.row_bytes = na_t * cb;
          oreq.src_stride = pitch;
          oreq.dst_stride = in.ldc * cb;
          ctx.wait(core, ctx.dma(core, oreq, ca, c_tile));
          ctx.phase_end(core, "c-tile", ph0);
        }
      }
    }
  }

  return ctx.finish(M, N, K, Strategy::ParallelM, l.dtype);
}

}  // namespace ftm::core
