#include "ftm/core/hgemm.hpp"

#include <algorithm>
#include <vector>

#include "ftm/core/strategies.hpp"
#include "ftm/util/half.hpp"

namespace ftm::core {

void pack_a_half(ConstMatrixView a, std::size_t kp, std::uint16_t* out,
                 kernelgen::DType dtype) {
  FTM_EXPECTS(out != nullptr && kp >= a.cols());
  const bool bf16 = dtype == kernelgen::DType::BF16;
  FTM_EXPECTS(bf16 || dtype == kernelgen::DType::F16);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::uint16_t* orow = out + r * kp;
    for (std::size_t c = 0; c < a.cols(); ++c) {
      orow[c] = util::f32_to_half(a(r, c), bf16);
    }
    for (std::size_t c = a.cols(); c < kp; ++c) orow[c] = 0;
  }
}

void pack_b_half(ConstMatrixView b, std::size_t kp, std::uint32_t* out,
                 kernelgen::DType dtype) {
  FTM_EXPECTS(out != nullptr && kp >= b.rows() && kp % 2 == 0);
  const bool bf16 = dtype == kernelgen::DType::BF16;
  FTM_EXPECTS(bf16 || dtype == kernelgen::DType::F16);
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  for (std::size_t p = 0; p < kp / 2; ++p) {
    std::uint32_t* orow = out + p * n;
    const std::size_t k0 = 2 * p;
    const std::size_t k1 = 2 * p + 1;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint16_t lo =
          k0 < k ? util::f32_to_half(b(k0, j), bf16) : std::uint16_t{0};
      const std::uint16_t hi =
          k1 < k ? util::f32_to_half(b(k1, j), bf16) : std::uint16_t{0};
      orow[j] = lo | (std::uint32_t{hi} << 16);
    }
  }
}

GemmResult hgemm(FtimmEngine& engine, const HGemmInput& in,
                 const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 4);
  FTM_EXPECTS(in.n <= 96);
  FTM_EXPECTS(in.k % 4 == 0);  // every K tile keeps >= 2 k-pairs
  FTM_EXPECTS(kernelgen::is_half(in.dtype));
  FTM_EXPECTS(opt.cores >= 1 &&
              opt.cores <= engine.machine().cores_per_cluster);
  if (opt.functional) {
    FTM_EXPECTS(in.a != nullptr && in.b != nullptr && in.c != nullptr);
  }
  const ElemLayout layout = elem_layout(in.dtype);
  const MOperands op{in.m, in.n, in.k, in.a, in.b, in.c,
                     in.lda, in.ldb, in.ldc};
  return run_strategy_m(
      engine.cluster(), engine.kernels(), op,
      fixed_m_blocks(in.m, in.n, in.k, opt.cores, engine.machine(), layout),
      layout, opt);
}

GemmResult hgemm_f32(FtimmEngine& engine, const GemmInput& in,
                     const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  FTM_EXPECTS(kernelgen::is_half(opt.dtype));
  const std::size_t kp = std::max<std::size_t>(4, (in.k + 3) / 4 * 4);

  std::vector<std::uint16_t> ah;
  if (opt.functional) {
    FTM_EXPECTS(in.a.data() != nullptr && in.b.data() != nullptr &&
                in.c.data() != nullptr);
    // Host-side rounding + packing, outside the timed region: half
    // operands are packed once and reused across calls in deployment, so
    // the conversion is not part of the GEMM's simulated cost.
    ah.resize(in.m * kp);
    pack_a_half(in.a, kp, ah.data(), opt.dtype);
  }

  // Wide N runs as sequential column panels of the AM-pitch width (96):
  // each panel is one hgemm pass over the full M x K, and the panels
  // serialize on the one simulated cluster, so cycles add.
  GemmResult r;
  std::vector<std::uint32_t> bp;
  for (std::size_t j0 = 0; j0 < in.n; j0 += 96) {
    const std::size_t nw = std::min<std::size_t>(96, in.n - j0);
    HGemmInput hin;
    hin.m = in.m;
    hin.n = nw;
    hin.k = kp;
    hin.dtype = opt.dtype;
    if (opt.functional) {
      bp.resize((kp / 2) * nw);
      pack_b_half(in.b.block(0, j0, in.k, nw), kp, bp.data(), opt.dtype);
      hin.a = ah.data();
      hin.b = bp.data();
      hin.c = in.c.data() + j0;
      hin.lda = kp;
      hin.ldb = nw;
      hin.ldc = in.c.ld();
    }
    r.add(hgemm(engine, hin, opt));
  }
  // Zero-padded K adds no useful flops; report rates for the true shape.
  derive_rates(r, in.flops(), opt.cores, engine.machine());
  return r;
}

}  // namespace ftm::core
