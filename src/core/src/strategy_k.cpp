#include <algorithm>
#include <cstring>
#include <vector>

#include "ftm/core/strategies.hpp"
#include "strategy_common.hpp"

namespace ftm::core {

using detail::CoreBufs;
using detail::Endpoint;
using detail::host;
using detail::pad;
using detail::RunCtx;

// Algorithm 5: K-dimension parallelization with GSM-based reduction.
//   for i (m_g blocks of M)
//     for j (n_g blocks of N)
//       C panel -> GSM (the original C values)
//       for ii (m_a blocks), jj (n_a blocks):
//         every core zeroes its AM partial C_a
//         for t (k_a blocks of K) PARALLEL over cores
//           B_a <- B[t..][j+jj..]     (DDR -> AM, ping-pong)
//           for u (m_s slices)        (A_s DDR -> SM, ping-pong)
//             C_a[u] += A_s x B_a
//         cores stage C_a partials into GSM; core 0 accumulates original C
//         + all partials chunk-wise and stores the block to DDR
GemmResult run_strategy_k(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const GemmInput& in, const KBlocks& kb,
                          const FtimmOptions& opt) {
  check_k_blocks(kb, cl.machine());
  RunCtx ctx(cl, cache, opt);
  const std::size_t M = in.m, N = in.n, K = in.k;
  const std::size_t f = sizeof(float);
  const std::size_t pitch_max = am_pitch_floats(kb.na) * f;

  // --- Provisioning ---
  sim::Region cg = cl.gsm().alloc(kb.mg * kb.ng * f);
  std::vector<sim::Region> stage(opt.cores);
  for (auto& r : stage) r = cl.gsm().alloc(kb.ma * pitch_max);
  const std::vector<CoreBufs> pc = ctx.provision(
      kb.ma * pitch_max, kb.ka * pitch_max, kb.ms * kb.ka * f);
  // Core 0's reduction chunk buffers.
  sim::Scratchpad& am0 = cl.core(0).am();
  const sim::Region racc = am0.alloc(kb.reduce_rows * pitch_max);
  const sim::Region rpart = am0.alloc(kb.reduce_rows * pitch_max);

  const std::size_t nkb = (K + kb.ka - 1) / kb.ka;  // parallel k blocks
  ctx.set_workers(nkb);
  // Cores that actually receive k blocks (round-robin: a contiguous
  // prefix); only these stage partials, and only these are reduced.
  const int W = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(opt.cores), nkb));

  for (std::size_t i0 = 0; i0 < M; i0 += kb.mg) {
    const std::size_t mg_t = std::min(kb.mg, M - i0);
    for (std::size_t j0 = 0; j0 < N; j0 += kb.ng) {
      const std::size_t ng_t = std::min(kb.ng, N - j0);

      // Original C panel into GSM (core 0's engine; readers wait below).
      const auto cgh = ctx.dma_shared(0, mg_t, ng_t * f, host(in.c, i0, j0),
                                      pad(cl.gsm(), cg.offset, ng_t * f));
      const std::uint64_t cg_ready = cl.timeline(0).done_time(cgh);

      for (std::size_t ii = 0; ii < mg_t; ii += kb.ma) {
        const std::size_t ma_t = std::min(kb.ma, mg_t - ii);
        for (std::size_t jj = 0; jj < ng_t; jj += kb.na) {
          const std::size_t na_t = std::min(kb.na, ng_t - jj);
          const std::size_t pitch = am_pitch_floats(na_t) * f;
          const std::size_t tile_vecs = ma_t * pitch / f / 32;

          // --- Parallel K loop ---
          for (int core = 0; core < W; ++core) {
            sim::Scratchpad& am = cl.core(core).am();
            const CoreBufs& buf = pc[core];
            // Zero the AM partial (VMOVI throughput: 3 vectors/cycle).
            if (ctx.fn) {
              ctx.exec.zero(core, am.raw(buf.ca.offset, ma_t * pitch),
                            ma_t * pitch);
            }
            cl.timeline(core).compute(tile_vecs / 3 + 1);

            const std::size_t mine = ctx.share(core, nkb);
            if (mine == 0) continue;
            const std::uint64_t kph0 = ctx.phase_begin(core);

            auto k_block = [&](std::size_t w) {
              return (core + w * opt.cores) * kb.ka;
            };
            auto load_ba = [&](std::size_t w) -> sim::DmaHandle {
              const std::size_t t0 = k_block(w);
              return ctx.dma(core, std::min(kb.ka, K - t0), na_t * f,
                             host(in.b, t0, j0 + jj),
                             pad(am, buf.ba[w % 2].offset, pitch));
            };
            sim::DmaHandle bh = load_ba(0);
            for (std::size_t w = 0; w < mine; ++w) {
              const std::size_t t0 = k_block(w);
              ctx.wait(core, bh);
              if (w + 1 < mine) bh = load_ba(w + 1);
              ctx.slices(core, buf, host(in.a, i0 + ii, t0), ma_t,
                         std::min(kb.ka, K - t0), kb.ms, na_t, pitch, w % 2,
                         ElemLayout{});
            }

            // Stage the partial into GSM.
            const auto sh =
                ctx.dma(core, ma_t, pitch, pad(am, buf.ca.offset, pitch),
                        pad(cl.gsm(), stage[core].offset, pitch));
            FTM_TRACE_COUNTER("reduce.gsm_bytes", ma_t * pitch);
            ctx.wait(core, sh);
            ctx.phase_end(core, "k-partial", kph0);
          }

          cl.barrier();
          ctx.sync();  // staged partials must land before anyone reads them

          // --- Final merge on core 0: original C plus every partial;
          // serial in the core count, which is exactly the overhead the
          // paper attributes to this strategy ---
          auto& tl0 = cl.timeline(0);
          tl0.advance_to(cg_ready);
          const std::uint64_t rph0 = ctx.phase_begin(0);
          for (std::size_t r0 = 0; r0 < ma_t; r0 += kb.reduce_rows) {
            const std::size_t rows = std::min(kb.reduce_rows, ma_t - r0);
            const Endpoint acc = pad(am0, racc.offset, pitch);
            // Original C chunk (from the GSM panel, tight ng_t pitch).
            const auto lh = ctx.dma(
                0, rows, na_t * f,
                pad(cl.gsm(), cg.offset + ((ii + r0) * ng_t + jj) * f,
                    ng_t * f),
                acc);
            FTM_TRACE_COUNTER("reduce.gsm_bytes", rows * na_t * f);
            ctx.wait(0, lh);
            auto* accbuf = reinterpret_cast<float*>(
                ctx.buf(am0, racc.offset, rows * pitch));
            for (int p = 0; p < W; ++p) {
              const auto ph = ctx.dma(
                  0, rows, pitch,
                  pad(cl.gsm(), stage[p].offset + r0 * pitch, pitch),
                  pad(am0, rpart.offset, pitch));
              FTM_TRACE_COUNTER("reduce.gsm_bytes", rows * pitch);
              ctx.wait(0, ph);
              if (ctx.fn) {
                ctx.exec.add_f32(0, accbuf,
                                 am0.f32(rpart.offset, rows * pitch / f),
                                 rows * pitch / f);
              }
              tl0.compute(rows * pitch / f / 32 + 1);  // ~1 cycle per vector
            }
            // Store the reduced chunk straight to DDR.
            ctx.wait(0, ctx.dma(0, rows, na_t * f, acc,
                                host(in.c, i0 + ii + r0, j0 + jj)));
          }
          ctx.phase_end(0, "reduce", rph0);
          cl.barrier();  // partials buffer may be reused now
          ctx.sync();    // ... by the next tile's staging writes
        }
      }
    }
  }

  return ctx.finish(in.m, in.n, in.k, Strategy::ParallelK);
}

}  // namespace ftm::core
