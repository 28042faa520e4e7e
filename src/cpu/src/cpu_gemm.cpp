#include "ftm/cpu/cpu_gemm.hpp"

#include <algorithm>
#include <functional>
#include <vector>

namespace ftm::cpu {

void reference_gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  FTM_EXPECTS(a.rows() == c.rows());
  FTM_EXPECTS(a.cols() == b.rows());
  FTM_EXPECTS(b.cols() == c.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a(i, p);
      const float* brow = b.row(p);
      float* crow = c.row(i);
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

namespace {

/// mr x nr register-blocked micro-kernel over packed panels.
/// pa: mr-major packed A (kc x mr), pb: nr-major packed B (kc x nr).
template <int MR, int NR>
void micro_kernel(std::size_t kc, const float* pa, const float* pb,
                  float* c, std::size_t ldc, std::size_t mr_t,
                  std::size_t nr_t) {
  float acc[MR][NR];
  for (int i = 0; i < MR; ++i)
    for (int j = 0; j < NR; ++j) acc[i][j] = 0.0f;
  for (std::size_t p = 0; p < kc; ++p) {
    const float* ap = pa + p * MR;
    const float* bp = pb + p * NR;
    for (int i = 0; i < MR; ++i) {
      const float av = ap[i];
      for (int j = 0; j < NR; ++j) acc[i][j] += av * bp[j];
    }
  }
  for (std::size_t i = 0; i < mr_t; ++i)
    for (std::size_t j = 0; j < nr_t; ++j) c[i * ldc + j] += acc[i][j];
}

void pack_a(ConstMatrixView a, std::size_t i0, std::size_t p0,
            std::size_t mc, std::size_t kc, std::size_t mr,
            std::vector<float>& buf) {
  // Panels of mr rows, k-major within panel: buf[(panel, p, r)].
  const std::size_t panels = (mc + mr - 1) / mr;
  buf.assign(panels * kc * mr, 0.0f);
  for (std::size_t panel = 0; panel < panels; ++panel) {
    const std::size_t rows = std::min(mr, mc - panel * mr);
    float* dst = buf.data() + panel * kc * mr;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < rows; ++r) {
        dst[p * mr + r] = a(i0 + panel * mr + r, p0 + p);
      }
    }
  }
}

void pack_b(ConstMatrixView b, std::size_t p0, std::size_t j0,
            std::size_t kc, std::size_t nc, std::size_t nr,
            std::vector<float>& buf) {
  const std::size_t panels = (nc + nr - 1) / nr;
  buf.assign(panels * kc * nr, 0.0f);
  for (std::size_t panel = 0; panel < panels; ++panel) {
    const std::size_t cols = std::min(nr, nc - panel * nr);
    float* dst = buf.data() + panel * kc * nr;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < cols; ++j) {
        dst[p * nr + j] = b(p0 + p, j0 + panel * nr + j);
      }
    }
  }
}

}  // namespace

void cpu_gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c,
              TaskPool* pool, const CpuGemmConfig& cfg) {
  FTM_EXPECTS(a.rows() == c.rows());
  FTM_EXPECTS(a.cols() == b.rows());
  FTM_EXPECTS(b.cols() == c.cols());
  FTM_EXPECTS(cfg.mr == 8 && cfg.nr == 16);  // instantiated micro-kernel
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0 || k == 0) return;

  // Parallelize over independent row blocks; each worker packs its own A
  // panel. B panels are shared read-only slices packed per (kc, nc) block
  // by each worker redundantly only when single-threaded would; to keep
  // the scheme simple and contention-free each worker packs B for its own
  // blocks too (the paper's comparison is about efficiency *ratios*, and
  // this implementation reaches a large fraction of host peak).
  auto run_rows = [&](std::size_t r0, std::size_t r1) {
    std::vector<float> abuf, bbuf;
    for (std::size_t j0 = 0; j0 < n; j0 += cfg.nc) {
      const std::size_t nc = std::min(cfg.nc, n - j0);
      for (std::size_t p0 = 0; p0 < k; p0 += cfg.kc) {
        const std::size_t kc = std::min(cfg.kc, k - p0);
        pack_b(b, p0, j0, kc, nc, cfg.nr, bbuf);
        for (std::size_t i0 = r0; i0 < r1; i0 += cfg.mc) {
          const std::size_t mc = std::min(cfg.mc, r1 - i0);
          pack_a(a, i0, p0, mc, kc, cfg.mr, abuf);
          const std::size_t mpanels = (mc + cfg.mr - 1) / cfg.mr;
          const std::size_t npanels = (nc + cfg.nr - 1) / cfg.nr;
          for (std::size_t jp = 0; jp < npanels; ++jp) {
            const std::size_t nr_t = std::min(cfg.nr, nc - jp * cfg.nr);
            for (std::size_t ip = 0; ip < mpanels; ++ip) {
              const std::size_t mr_t = std::min(cfg.mr, mc - ip * cfg.mr);
              micro_kernel<8, 16>(
                  kc, abuf.data() + ip * kc * cfg.mr,
                  bbuf.data() + jp * kc * cfg.nr,
                  &c(i0 + ip * cfg.mr, j0 + jp * cfg.nr), c.ld(), mr_t,
                  nr_t);
            }
          }
        }
      }
    }
  };

  const unsigned parts = pool == nullptr ? 1 : pool->parallelism();
  if (parts == 1 || m < 2 * cfg.mr) {
    run_rows(0, m);
    return;
  }
  // One contiguous row chunk per pool thread; the first m % parts chunks
  // take one extra row.
  std::vector<std::function<void()>> tasks;
  const std::size_t base = m / parts, rem = m % parts;
  for (std::size_t i = 0, r0 = 0; i < parts; ++i) {
    const std::size_t rows = base + (i < rem ? 1 : 0);
    if (rows > 0) {
      tasks.emplace_back([&, r0, rows] { run_rows(r0, r0 + rows); });
    }
    r0 += rows;
  }
  pool->run_batch(std::move(tasks));
}

}  // namespace ftm::cpu
