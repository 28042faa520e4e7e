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
  const std::size_t M = in.m, N = in.n, K = in.k;
  const std::size_t kr = l.k_per_row, ab = l.a_bytes, cb = l.c_bytes;
  const std::size_t brow = l.b_row_bytes();
  const std::size_t pitch_max = l.pitch_bytes(mb.na);

  // --- Provisioning ---
  sim::Region bg[2];
  for (auto& r : bg) r = cl.gsm().alloc(mb.kg / kr * mb.ng * brow);
  const std::vector<CoreBufs> pc = ctx.provision(
      mb.ma * pitch_max, mb.ka / kr * pitch_max, mb.ms * mb.ka * ab);

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

  // Shared destination: every core reads this GSM panel, so the copy is
  // serialized against all deferred per-core work (dma_shared).
  auto load_bg = [&](std::size_t idx) -> sim::DmaHandle {
    const Panel& p = panels[idx];
    return ctx.dma_shared(
        0, p.kg_t / kr, p.ng_t * brow,
        host(in.b, (p.j0 / kr * in.ldb + p.i0) * brow, in.ldb * brow),
        pad(cl.gsm(), bg[idx % 2].offset, p.ng_t * brow));
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

    for (int core = 0; core < opt.cores; ++core) {
      cl.timeline(core).advance_to(bg_ready);
      sim::Scratchpad& am = cl.core(core).am();
      const CoreBufs& buf = pc[core];

      const std::size_t mine = ctx.share(core, ntb);
      for (std::size_t w = 0; w < mine; ++w) {
        const std::size_t t0 = (core + w * opt.cores) * mb.ma;
        const std::size_t ma_t = std::min(mb.ma, M - t0);

        for (std::size_t ii = 0; ii < p.ng_t; ii += mb.na) {
          const std::size_t na_t = std::min(mb.na, p.ng_t - ii);
          const std::size_t pitch = l.pitch_bytes(na_t);
          const Endpoint c_tile =
              host(in.c, (t0 * in.ldc + p.i0 + ii) * cb, in.ldc * cb);
          const Endpoint ca = pad(am, buf.ca.offset, pitch);
          const std::uint64_t ph0 = ctx.phase_begin(core);

          // C tile in.
          const auto ch = ctx.dma(core, ma_t, na_t * cb, c_tile, ca);

          // B_a tiles from GSM, ping-ponged over jj.
          const std::size_t njj = (p.kg_t + mb.ka - 1) / mb.ka;
          auto load_ba = [&](std::size_t jb) -> sim::DmaHandle {
            const std::size_t jj = jb * mb.ka;
            return ctx.dma(
                core, std::min(mb.ka, p.kg_t - jj) / kr, na_t * brow,
                pad(cl.gsm(), bg_off + (jj / kr * p.ng_t + ii) * brow,
                    p.ng_t * brow),
                pad(am, buf.ba[jb % 2].offset, pitch));
          };
          sim::DmaHandle bh = load_ba(0);
          ctx.wait(core, ch);

          for (std::size_t jb = 0; jb < njj; ++jb) {
            const std::size_t jj = jb * mb.ka;
            ctx.wait(core, bh);
            if (jb + 1 < njj) bh = load_ba(jb + 1);
            // A_s slices from DDR, ping-ponged over tt.
            const Endpoint a =
                host(in.a, (t0 * in.lda + p.j0 + jj) * ab, in.lda * ab);
            ctx.slices(core, buf, a, ma_t, std::min(mb.ka, p.kg_t - jj),
                       mb.ms, na_t, pitch, jb % 2, l);
          }

          // C tile out.
          ctx.wait(core, ctx.dma(core, ma_t, na_t * cb, ca, c_tile));
          ctx.phase_end(core, "c-tile", ph0);
        }
      }
    }
  }

  return ctx.finish(M, N, K, Strategy::ParallelM, l.dtype);
}

}  // namespace ftm::core
