#include "ftm/core/blocking.hpp"

#include <algorithm>

#include "ftm/util/assert.hpp"

namespace ftm::core {

namespace {
constexpr std::size_t kFloat = sizeof(float);

std::size_t round_down(std::size_t v, std::size_t step) {
  return v - v % step;
}
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

std::size_t am_pitch_floats(std::size_t na) { return ceil_div(na, 32) * 32; }

ElemLayout elem_layout(kernelgen::DType dtype) {
  switch (dtype) {
    case kernelgen::DType::F32: return {4, 4, 4, 1, dtype};
    case kernelgen::DType::F64: return {8, 8, 8, 1, dtype};
    case kernelgen::DType::F16:
    case kernelgen::DType::BF16: return {2, 2, 4, 2, dtype};
  }
  FTM_ASSERT(false);
  return {};
}

double cmr_m_outer(std::size_t ma, std::size_t kg, std::size_t ng,
                   int cores) {
  const double p = cores;
  return 2.0 * ma * kg * ng * p /
         (p * ma * (kg + 2.0 * ng) + static_cast<double>(kg) * ng);
}

double cmr_m_inner(std::size_t ma, std::size_t ka, std::size_t na,
                   int cores) {
  const double p = cores;
  return 2.0 * ma * ka * na * p /
         (p * ma * (ka + 2.0 * na) + static_cast<double>(ka) * na);
}

double cmr_k_outer(std::size_t mg, std::size_t ka, std::size_t ng,
                   int cores) {
  const double p = cores;
  return 2.0 * mg * ka * ng * p /
         (p * ka * (mg + static_cast<double>(ng)) + 2.0 * mg * ng);
}

double cmr_k_inner(std::size_t ma, std::size_t ka, std::size_t na,
                   int cores) {
  const double p = cores;
  return 2.0 * ma * ka * na * p /
         (p * ka * (ma + static_cast<double>(na)) + 2.0 * ma * na);
}

void check_m_blocks(const MBlocks& b, const isa::MachineConfig& mc,
                    const ElemLayout& l) {
  FTM_EXPECTS(b.ms >= 1 && b.na >= 1 && b.na <= l.na_max() && b.ng >= b.na);
  // Interleaved B panels and tiles hold whole k-pair rows.
  FTM_EXPECTS(b.ka % l.k_per_row == 0 && b.kg % l.k_per_row == 0);
  const std::size_t p = l.pitch_bytes(b.na);
  // GSM: double-buffered B panel.
  FTM_EXPECTS(2 * (b.kg / l.k_per_row) * b.ng * l.b_row_bytes() <=
              mc.gsm_bytes);
  // SM: double-buffered A_s slice.
  FTM_EXPECTS(2 * b.ms * b.ka * l.a_bytes <= mc.sm_bytes);
  // AM: C_a tile + double-buffered B_a tile.
  FTM_EXPECTS(b.ma * p + 2 * (b.ka / l.k_per_row) * p <= mc.am_bytes);
  FTM_EXPECTS(b.ms <= b.ma && b.na <= b.ng && b.ka <= b.kg);
}

void check_k_blocks(const KBlocks& b, const isa::MachineConfig& mc) {
  FTM_EXPECTS(b.ms >= 1 && b.na >= 1 && b.na <= 96 && b.na <= b.ng);
  const std::size_t p = am_pitch_floats(b.na);
  // GSM: C panel + one staged C_a partial per core.
  FTM_EXPECTS(b.mg * b.ng * kFloat +
                  static_cast<std::size_t>(mc.cores_per_cluster) * b.ma * p *
                      kFloat <=
              mc.gsm_bytes);
  // SM: double-buffered A_s slice.
  FTM_EXPECTS(2 * b.ms * b.ka * kFloat <= mc.sm_bytes);
  // AM: C_a partial + double-buffered B_a + two reduction chunk buffers.
  FTM_EXPECTS((b.ma * p + 2 * b.ka * p + 2 * b.reduce_rows * p) * kFloat <=
              mc.am_bytes);
  FTM_EXPECTS(b.ms <= b.ma && b.ma <= b.mg);
  FTM_EXPECTS(b.reduce_rows >= 1);
}

void check_t_blocks(const TBlocks& b, const isa::MachineConfig& mc) {
  FTM_EXPECTS(b.na == 96);  // TGEMM's fixed implicit padding
  const std::size_t p = am_pitch_floats(b.na);
  FTM_EXPECTS(2 * b.mg * b.kg * kFloat <= mc.gsm_bytes);
  FTM_EXPECTS(2 * b.ms * b.kg * kFloat <= mc.sm_bytes);
  FTM_EXPECTS((b.mg * p + 2 * b.kg * p) * kFloat <= mc.am_bytes);
}

MBlocks initial_m_blocks(const isa::MachineConfig& mc) {
  MBlocks best;
  double best_score = -1.0;
  const int cores = mc.cores_per_cluster;
  const std::size_t ng = 96, na = 96;
  const std::size_t p = am_pitch_floats(na);
  const std::size_t kg = round_down(mc.gsm_bytes / (2 * ng * kFloat), 32);
  for (std::size_t ms : {6, 8, 10, 12}) {
    const std::size_t ka_cap =
        std::min<std::size_t>(1024, mc.sm_bytes / (2 * ms * kFloat));
    for (std::size_t ka = 128; ka <= ka_cap; ka += 32) {
      if (2 * ka * p * kFloat >= mc.am_bytes) break;
      std::size_t ma = (mc.am_bytes / kFloat - 2 * ka * p) / p;
      ma = round_down(ma, ms);
      if (ma < ms) continue;
      const double score = std::min(cmr_m_outer(ma, kg, ng, cores),
                                    cmr_m_inner(ma, ka, na, cores));
      if (score > best_score) {
        best_score = score;
        best = MBlocks{kg, ng, ma, na, ka, ms};
      }
    }
  }
  check_m_blocks(best, mc);
  return best;
}

KBlocks initial_k_blocks(const isa::MachineConfig& mc) {
  KBlocks best;
  double best_score = -1.0;
  const int cores = mc.cores_per_cluster;
  const std::size_t na = 96;
  const std::size_t p = am_pitch_floats(na);
  const std::size_t reduce_rows = 64;
  for (std::size_t ms : {6, 8, 10, 12, 14}) {
    const std::size_t ka_cap =
        std::min<std::size_t>(1024, mc.sm_bytes / (2 * ms * kFloat));
    for (std::size_t ka = 128; ka <= ka_cap; ka += 32) {
      const std::size_t fixed = (2 * ka + 2 * reduce_rows) * p;
      if (fixed * kFloat >= mc.am_bytes) break;
      std::size_t ma = (mc.am_bytes / kFloat - fixed) / p;
      ma = round_down(ma, ms);
      if (ma < ms) continue;
      // GSM: C panel plus one staged partial per core.
      const std::size_t stage = static_cast<std::size_t>(cores) * ma * p;
      if (stage * kFloat >= mc.gsm_bytes) continue;
      std::size_t ng = (mc.gsm_bytes / kFloat - stage) / std::max(ma, na);
      ng = std::min<std::size_t>(round_down(ng, 32), 512);
      if (ng < na) continue;
      const std::size_t mg = ma;  // one AM tile per GSM panel row block
      const double score = std::min(cmr_k_outer(mg, ka, ng, cores),
                                    cmr_k_inner(ma, ka, na, cores));
      if (score > best_score) {
        best_score = score;
        best = KBlocks{mg, ng, ma, na, ka, ms, reduce_rows};
      }
    }
  }
  check_k_blocks(best, mc);
  return best;
}

MBlocks adjust_m_blocks(MBlocks b, std::size_t m, std::size_t n,
                        std::size_t k, const isa::MachineConfig& mc,
                        int cores) {
  FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1);
  FTM_EXPECTS(cores >= 1);
  b.na = std::min<std::size_t>(96, n);
  b.ng = std::min(std::max(b.na, b.ng), n);
  const std::size_t p = am_pitch_floats(b.na);

  // Keep k_a within K; a shrunken k_a frees SM and AM capacity.
  b.ka = std::min(b.ka, k);
  // ms >= 6 when M allows (small-ms kernels underperform), capped by the
  // SM footprint of the double-buffered A slice and a practical 16.
  std::size_t ms_cap =
      std::min<std::size_t>(16, mc.sm_bytes / (2 * b.ka * kFloat));
  b.ms = std::min(ms_cap, std::max<std::size_t>(b.ms, 6));
  if (m < b.ms) b.ms = m;
  FTM_ASSERT(b.ms >= 1);

  // Re-grow m_a into whatever AM is left, then pick the block size so the
  // parallel block count is a multiple of the active cores (round-robin
  // assignment stays balanced).
  std::size_t ma_cap = (mc.am_bytes / kFloat - 2 * b.ka * p) / p;
  ma_cap = std::min<std::size_t>(ma_cap, 4096);  // DMA practicality
  ma_cap = std::max(ma_cap, b.ms);
  const std::size_t pcores = static_cast<std::size_t>(cores);
  std::size_t blocks =
      std::max(pcores, ceil_div(ceil_div(m, ma_cap), pcores) * pcores);
  blocks = std::min(blocks, ceil_div(m, b.ms));  // tiny-M: fewer blocks
  std::size_t ma = ceil_div(m, std::max<std::size_t>(1, blocks));
  ma = ceil_div(ma, b.ms) * b.ms;  // whole micro-kernel slices
  b.ma = std::clamp(ma, b.ms, ma_cap);

  // k_g as large as GSM allows (improves C_a reuse), multiple of k_a.
  std::size_t kg = round_down(mc.gsm_bytes / (2 * b.ng * kFloat), 32);
  kg = std::min(kg, k);
  if (kg > b.ka) kg = std::max(b.ka, round_down(kg, b.ka));
  b.kg = std::max(b.ka, kg);

  check_m_blocks(b, mc);
  return b;
}

MBlocks fixed_m_blocks(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc,
                       const ElemLayout& l) {
  FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1 && cores >= 1);
  MBlocks b;
  b.na = std::min(l.na_max(), n);
  b.ng = b.na;
  const std::size_t p = l.pitch_bytes(b.na);

  // Pair-consuming kernels need every tail tile to keep >= 2 k pairs.
  const std::size_t k_step = l.k_per_row == 1 ? 1 : 2 * l.k_per_row;
  b.ka = std::min<std::size_t>(k, 512);
  b.ka = std::max(k_step, round_down(b.ka, k_step));
  // SM holds two ping-pong A slices of ms x ka elements.
  std::size_t ms =
      std::min<std::size_t>(12, mc.sm_bytes / (2 * b.ka * l.a_bytes));
  if (m >= 6) ms = std::max<std::size_t>(std::min<std::size_t>(ms, 12), 6);
  b.ms = std::max<std::size_t>(1, std::min(ms, m));

  // AM: C tile of ma rows + two B buffers of ka / k_per_row rows.
  std::size_t ma_cap = (mc.am_bytes - 2 * (b.ka / l.k_per_row) * p) / p;
  ma_cap = std::min<std::size_t>(ma_cap, 4096);
  ma_cap = std::max(ma_cap, b.ms);
  const std::size_t pcores = static_cast<std::size_t>(cores);
  std::size_t blocks =
      std::max(pcores, ceil_div(ceil_div(m, ma_cap), pcores) * pcores);
  blocks = std::min(blocks, ceil_div(m, b.ms));
  std::size_t ma = ceil_div(m, std::max<std::size_t>(1, blocks));
  ma = ceil_div(ma, b.ms) * b.ms;
  b.ma = std::clamp(ma, b.ms, ma_cap);

  // GSM: two ping-pong B panels of kg x ng elements.
  std::size_t kg = mc.gsm_bytes / (2 * b.ng * l.b_bytes);
  kg = std::min(kg, k);
  if (kg > b.ka) kg = std::max(b.ka, round_down(kg, b.ka));
  b.kg = std::max(b.ka, kg);
  return b;
}

KBlocks adjust_k_blocks(KBlocks b, std::size_t m, std::size_t n,
                        std::size_t k, const isa::MachineConfig& mc,
                        int cores) {
  FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1);
  FTM_EXPECTS(cores >= 1);
  b.na = std::min<std::size_t>(96, n);
  b.ng = std::min(std::max(b.na, b.ng), n);
  const std::size_t p = am_pitch_floats(b.na);

  // The K dimension is the parallel one: make k_a large enough to amortize
  // DMA but small enough that every core receives blocks — and keep the
  // block count a multiple of the cores where possible.
  b.ka = std::min(b.ka, std::max<std::size_t>(
                            32, ceil_div(k, static_cast<std::size_t>(cores))));
  b.ka = std::min(b.ka, k);

  b.ms = std::min<std::size_t>(
      {b.ms, std::max<std::size_t>(1, m),
       std::max<std::size_t>(1, mc.sm_bytes / (2 * b.ka * kFloat))});
  if (m >= 6) b.ms = std::max<std::size_t>(b.ms, 6);

  // m_a into remaining AM (C partial + staged reduction buffers). Do not
  // round below M itself: a ragged extra m_a block doubles the reduction.
  std::size_t ma = (mc.am_bytes / kFloat - 2 * b.ka * p -
                    2 * b.reduce_rows * p) / p;
  ma = std::min(ma, std::size_t{4096});
  if (m <= ma) {
    ma = std::max<std::size_t>(m, b.ms);
  } else {
    ma = std::max(b.ms, round_down(ma, b.ms));
  }
  b.ma = ma;
  // GSM staging is provisioned for the whole cluster (the audit and the
  // strategy's allocation do not depend on how many cores a particular run
  // enables), so size it with cores_per_cluster even when fewer are active.
  const std::size_t all_cores =
      static_cast<std::size_t>(mc.cores_per_cluster);
  while (all_cores * b.ma * p * kFloat + b.ma * b.na * kFloat >=
         mc.gsm_bytes) {
    FTM_ASSERT(b.ma > b.ms);
    b.ma = std::max(b.ms, round_down(b.ma - b.ms, b.ms));
  }
  b.mg = std::min(std::max(b.ma, b.mg), std::max<std::size_t>(1, m));
  b.mg = std::max(b.ma, round_down(b.mg, b.ma));
  // C panel + staging must fit GSM.
  while (b.mg * b.ng * kFloat + all_cores * b.ma * p * kFloat >
         mc.gsm_bytes) {
    FTM_ASSERT(b.mg > b.ma);
    b.mg -= b.ma;
  }
  // The reduction walks the C panel in reduce_rows chunks; a chunk wider
  // than the (possibly shrunken) m_g both wastes the two staged AM chunk
  // buffers and makes the chunk loop degenerate.
  b.reduce_rows = std::max<std::size_t>(1, std::min(b.reduce_rows, b.mg));

  check_k_blocks(b, mc);
  return b;
}

}  // namespace ftm::core
