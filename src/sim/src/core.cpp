#include "ftm/sim/core.hpp"

#include <cmath>
#include <cstring>

#include "ftm/trace/trace.hpp"
#include "ftm/util/half.hpp"

namespace ftm::sim {

using isa::Instr;
using isa::Opcode;

DspCore::DspCore(const isa::MachineConfig& mc)
    : mc_(mc), sm_("SM", mc.sm_bytes), am_("AM", mc.am_bytes) {}

void DspCore::reset_registers() {
  sregs_ = ScalarRegFile{};
  vregs_ = VectorRegFile{};
  sready_.fill(0);
  vready_.fill(0);
}

int DspCore::latency(Opcode op) const { return isa::op_latency(op, mc_); }

namespace {
float u32_to_f32(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

double u64_to_f64(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// FP64 view of a vector register (32 FP32 lanes == 16 FP64 lanes).
void vreg_as_f64(const std::array<float, 32>& v, double out[16]) {
  std::memcpy(out, v.data(), 16 * sizeof(double));
}

void f64_to_vreg(const double in[16], std::array<float, 32>& v) {
  std::memcpy(v.data(), in, 16 * sizeof(double));
}
}  // namespace

void DspCore::execute(const Instr& in) {
  auto& S = sregs_.v;
  auto& V = vregs_.v;
  switch (in.op) {
    case Opcode::SLDW:
      S[in.dst] = sm_.load_u32(S[in.abase] + in.imm);
      break;
    case Opcode::SLDDW:
      S[in.dst] = sm_.load_u64(S[in.abase] + in.imm);
      break;
    case Opcode::SMOVI:
      S[in.dst] = static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm));
      break;
    case Opcode::SADDI:
      S[in.dst] = S[in.src1] + static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(in.imm));
      break;
    case Opcode::SFEXTS32L:
      S[in.dst] = S[in.src1] & 0xffffffffULL;
      break;
    case Opcode::SBALE2H:
      S[in.dst] = (S[in.src2] & 0xffffffffULL) << 32 |
                  (S[in.src1] & 0xffffffffULL);
      break;
    case Opcode::SVBCAST: {
      const float a = u32_to_f32(static_cast<std::uint32_t>(S[in.src1]));
      V[in.dst].fill(a);
      break;
    }
    case Opcode::SVBCAST2: {
      const float lo = u32_to_f32(static_cast<std::uint32_t>(S[in.src1]));
      const float hi =
          u32_to_f32(static_cast<std::uint32_t>(S[in.src1] >> 32));
      V[in.dst].fill(lo);
      V[in.dst + 1].fill(hi);
      break;
    }
    case Opcode::SVBCASTD: {
      double lanes[16];
      for (double& l : lanes) l = u64_to_f64(S[in.src1]);
      f64_to_vreg(lanes, V[in.dst]);
      break;
    }
    case Opcode::SVBCASTH: {
      // 64-bit scalar = two packed half pairs; one pair splat per dest.
      const float lo = u32_to_f32(static_cast<std::uint32_t>(S[in.src1]));
      const float hi =
          u32_to_f32(static_cast<std::uint32_t>(S[in.src1] >> 32));
      V[in.dst].fill(lo);
      V[in.dst + 1].fill(hi);
      break;
    }
    case Opcode::VLDW: {
      const float* src = am_.f32(S[in.abase] + in.imm, 32);
      std::memcpy(V[in.dst].data(), src, 32 * sizeof(float));
      break;
    }
    case Opcode::VLDDW: {
      const float* src = am_.f32(S[in.abase] + in.imm, 64);
      std::memcpy(V[in.dst].data(), src, 32 * sizeof(float));
      std::memcpy(V[in.dst + 1].data(), src + 32, 32 * sizeof(float));
      break;
    }
    case Opcode::VSTW: {
      float* dst = am_.f32(S[in.abase] + in.imm, 32);
      std::memcpy(dst, V[in.src1].data(), 32 * sizeof(float));
      break;
    }
    case Opcode::VSTDW: {
      float* dst = am_.f32(S[in.abase] + in.imm, 64);
      std::memcpy(dst, V[in.src1].data(), 32 * sizeof(float));
      std::memcpy(dst + 32, V[in.src1 + 1].data(), 32 * sizeof(float));
      break;
    }
    case Opcode::VLDH: {
      // 64 packed halves = the same 128 B as one FP32 register.
      const float* src = am_.f32(S[in.abase] + in.imm, 32);
      std::memcpy(V[in.dst].data(), src, 32 * sizeof(float));
      break;
    }
    case Opcode::VSTH: {
      float* dst = am_.f32(S[in.abase] + in.imm, 32);
      std::memcpy(dst, V[in.src1].data(), 32 * sizeof(float));
      break;
    }
    case Opcode::VMOVI: {
      V[in.dst].fill(u32_to_f32(static_cast<std::uint32_t>(in.imm)));
      break;
    }
    case Opcode::VFMULAS32: {
      auto& c = V[in.dst];
      const auto& a = V[in.src1];
      const auto& b = V[in.src2];
      for (int l = 0; l < 32; ++l) c[l] = std::fmaf(a[l], b[l], c[l]);
      break;
    }
    case Opcode::VADDS32: {
      auto& d = V[in.dst];
      const auto& a = V[in.src1];
      const auto& b = V[in.src2];
      for (int l = 0; l < 32; ++l) d[l] = a[l] + b[l];
      break;
    }
    case Opcode::VFMULAD64: {
      double c[16], a[16], b[16];
      vreg_as_f64(V[in.dst], c);
      vreg_as_f64(V[in.src1], a);
      vreg_as_f64(V[in.src2], b);
      for (int l = 0; l < 16; ++l) c[l] = std::fma(a[l], b[l], c[l]);
      f64_to_vreg(c, V[in.dst]);
      break;
    }
    case Opcode::VADDD64: {
      double d[16], a[16], b[16];
      vreg_as_f64(V[in.src1], a);
      vreg_as_f64(V[in.src2], b);
      for (int l = 0; l < 16; ++l) d[l] = a[l] + b[l];
      f64_to_vreg(d, V[in.dst]);
      break;
    }
    case Opcode::VFMULAH32: {
      // 2-way dot-product accumulate: each FP32 lane word of the sources
      // is a packed (k, k+1) half pair; both products land in one FP32
      // accumulator lane via two chained fmas (low pair first). This
      // evaluation order is the contract every host tier must match.
      auto& c = V[in.dst];
      const auto& a = V[in.src1];
      const auto& b = V[in.src2];
      const bool bf16 = in.imm != 0;
      for (int l = 0; l < 32; ++l) {
        const std::uint32_t aw = util::f32_bits(a[l]);
        const std::uint32_t bw = util::f32_bits(b[l]);
        const float a0 =
            util::half_to_f32(static_cast<std::uint16_t>(aw), bf16);
        const float a1 =
            util::half_to_f32(static_cast<std::uint16_t>(aw >> 16), bf16);
        const float b0 =
            util::half_to_f32(static_cast<std::uint16_t>(bw), bf16);
        const float b1 =
            util::half_to_f32(static_cast<std::uint16_t>(bw >> 16), bf16);
        c[l] = std::fmaf(a1, b1, std::fmaf(a0, b0, c[l]));
      }
      break;
    }
    case Opcode::SBR:
      // Counter decrement happens at issue; the jump is applied by run().
      S[in.dst] -= 1;
      break;
    case Opcode::NOP:
    case Opcode::kCount:
      break;
  }
}

ExecResult DspCore::run(const isa::Program& prog, std::uint64_t max_cycles) {
  prog.validate();
  ExecResult res;
  std::uint64_t now = 0;
  std::size_t pc = 0;
  // Pending branch: after `delay` more bundles have issued, jump to target.
  int branch_delay = -1;
  std::size_t branch_target = 0;

  const int sbr_delay_slots = mc_.lat_sbr - 1;

  while (pc < prog.bundles.size()) {
    FTM_ASSERT(now < max_cycles);
    const isa::Bundle& b = prog.bundles[pc];

    // Scoreboard: the bundle issues when all sources are ready.
    std::uint64_t ready = now;
    auto need_s = [&](std::uint8_t r) {
      if (sready_[r] > ready) ready = sready_[r];
    };
    auto need_v = [&](std::uint8_t r) {
      if (vready_[r] > ready) ready = vready_[r];
    };
    for (const Instr& in : b.ops) {
      switch (in.op) {
        case Opcode::SLDW:
        case Opcode::SLDDW:
          need_s(in.abase);
          break;
        case Opcode::SADDI:
        case Opcode::SFEXTS32L:
          need_s(in.src1);
          break;
        case Opcode::SBALE2H:
          need_s(in.src1);
          need_s(in.src2);
          break;
        case Opcode::SVBCAST:
        case Opcode::SVBCAST2:
        case Opcode::SVBCASTD:
        case Opcode::SVBCASTH:
          need_s(in.src1);
          break;
        case Opcode::VLDW:
        case Opcode::VLDDW:
        case Opcode::VLDH:
          need_s(in.abase);
          break;
        case Opcode::VSTW:
        case Opcode::VSTH:
          need_s(in.abase);
          need_v(in.src1);
          break;
        case Opcode::VSTDW:
          need_s(in.abase);
          need_v(in.src1);
          need_v(in.src1 + 1);
          break;
        case Opcode::VFMULAS32:
        case Opcode::VFMULAD64:
        case Opcode::VFMULAH32:
          need_v(in.dst);  // accumulator is read-modify-write
          need_v(in.src1);
          need_v(in.src2);
          break;
        case Opcode::VADDS32:
        case Opcode::VADDD64:
          need_v(in.src1);
          need_v(in.src2);
          break;
        case Opcode::SBR:
          need_s(in.dst);
          break;
        case Opcode::SMOVI:
        case Opcode::VMOVI:
        case Opcode::NOP:
        case Opcode::kCount:
          break;
      }
    }
    res.stall_cycles += ready - now;
    now = ready;

    // Execute functionally and retire destinations at now + latency.
    bool branch_taken_here = false;
    std::size_t taken_target = 0;
    for (const Instr& in : b.ops) {
      if (in.op == Opcode::SBR) {
        execute(in);
        if (sregs_.v[in.dst] != 0) {
          branch_taken_here = true;
          taken_target = static_cast<std::size_t>(in.imm);
        }
        sready_[in.dst] = now + latency(in.op);
        continue;
      }
      execute(in);
      const std::uint64_t done = now + latency(in.op);
      switch (in.op) {
        case Opcode::SLDW:
        case Opcode::SLDDW:
        case Opcode::SMOVI:
        case Opcode::SADDI:
        case Opcode::SFEXTS32L:
        case Opcode::SBALE2H:
          sready_[in.dst] = done;
          break;
        case Opcode::SVBCAST:
        case Opcode::SVBCASTD:
          vready_[in.dst] = done;
          break;
        case Opcode::SVBCAST2:
        case Opcode::SVBCASTH:
          vready_[in.dst] = done;
          vready_[in.dst + 1] = done;
          break;
        case Opcode::VLDW:
        case Opcode::VLDH:
        case Opcode::VMOVI:
          vready_[in.dst] = done;
          break;
        case Opcode::VLDDW:
          vready_[in.dst] = done;
          vready_[in.dst + 1] = done;
          break;
        case Opcode::VFMULAS32:
          vready_[in.dst] = done;
          ++res.vfmac_ops;
          res.flops += static_cast<std::uint64_t>(mc_.flops_per_vfmac());
          break;
        case Opcode::VFMULAD64:
          vready_[in.dst] = done;
          ++res.vfmac_ops;
          res.flops += static_cast<std::uint64_t>(mc_.flops_per_vfmac() / 2);
          break;
        case Opcode::VFMULAH32:
          // Two half products per FP32 accumulator lane: 2x the FP32 rate.
          vready_[in.dst] = done;
          ++res.vfmac_ops;
          res.flops += static_cast<std::uint64_t>(mc_.flops_per_vfmac() * 2);
          break;
        case Opcode::VADDS32:
        case Opcode::VADDD64:
          vready_[in.dst] = done;
          break;
        case Opcode::VSTW:
        case Opcode::VSTDW:
        case Opcode::VSTH:
        case Opcode::SBR:
        case Opcode::NOP:
        case Opcode::kCount:
          break;
      }
    }

    if (trace_) trace_(pc, now);
    ++res.bundles;
    now += 1;  // the bundle occupies one issue cycle

    // Branch bookkeeping (delay slots).
    if (branch_delay >= 0) {
      if (branch_delay == 0) {
        pc = branch_target;
        branch_delay = -1;
        continue;
      }
      --branch_delay;
      ++pc;
      continue;
    }
    if (branch_taken_here) {
      if (sbr_delay_slots == 0) {
        pc = taken_target;
      } else {
        branch_delay = sbr_delay_slots - 1;
        branch_target = taken_target;
        ++pc;
      }
      continue;
    }
    ++pc;
  }
  res.cycles = now;
  // Detailed executions happen during kernel calibration and in debugging
  // tools; the counters make that (one-off) work visible next to the
  // replayed fast-path kernels.
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    ts->count("core.detailed_runs");
    ts->count("core.bundles", res.bundles);
    ts->count("core.stall_cycles", res.stall_cycles);
    ts->count("core.vfmac_ops", res.vfmac_ops);
  }
  return res;
}

}  // namespace ftm::sim
