// Instruction set of the simulated FT-m7032 DSP core.
//
// The mnemonics follow the paper's pipeline tables (Tables I-III): scalar
// loads (SLDW/SLDDW), scalar extract/pack (SFEXTS32L/SBALE2H), SPU->VPU
// broadcasts (SVBCAST/SVBCAST2), vector loads/stores (VLDW/VLDDW/VSTW/
// VSTDW), the vector fused multiply-add VFMULAS32, and the loop branch SBR.
//
// A program is a sequence of VLIW bundles; each bundle may occupy every
// functional unit at most once (5 scalar slots + 6 vector slots = the 11
// instructions/cycle the IFU can dispatch). Scheduling correctness is NOT
// assumed: the core model (src/sim) stalls whole bundles on read-after-write
// hazards, so a bad schedule still computes the right answer — it just
// costs cycles. The kernel generator's job is to produce stall-free bodies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftm/isa/machine.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::isa {

enum class Opcode : std::uint8_t {
  // Scalar load/store unit ops (access Scalar Memory).
  SLDW,       ///< S[dst].lo32 = 32-bit word at SM[S[abase] + imm].
  SLDDW,      ///< S[dst] = 64-bit dword at SM[S[abase] + imm] (two FP32).
  // Scalar ALU / FMAC-slot ops.
  SMOVI,      ///< S[dst] = imm (64-bit sign-extended).
  SADDI,      ///< S[dst] = S[src1] + imm.
  SFEXTS32L,  ///< S[dst] = low 32 bits of S[src1].
  SBALE2H,    ///< S[dst] = (S[src2].lo32 << 32) | S[src1].lo32 (pack pair).
  // SPU -> VPU broadcast ops.
  SVBCAST,    ///< V[dst][*] = fp32(S[src1].lo32): one scalar to all lanes.
  SVBCAST2,   ///< V[dst][*] = fp32(S[src1].lo32); V[dst+1][*] = fp32(hi32).
  SVBCASTD,   ///< V[dst][*16] = fp64(S[src1]): one double to all 16 lanes.
              ///< Consumes the full 2-FP32/cycle broadcast bandwidth.
  // Vector load/store unit ops (access Array Memory).
  VLDW,       ///< V[dst] = 32 FP32 at AM[S[abase] + imm].
  VLDDW,      ///< V[dst], V[dst+1] = 64 FP32 at AM[S[abase] + imm].
  VSTW,       ///< AM[S[abase] + imm] = V[src1] (32 FP32).
  VSTDW,      ///< AM[S[abase] + imm] = V[src1], V[src1+1] (64 FP32).
  // Vector ALU / FMAC ops.
  VMOVI,      ///< V[dst][*] = fp32 imm (splat; used to zero accumulators).
  VFMULAS32,  ///< V[dst] += V[src1] * V[src2] elementwise (FP32 FMA).
  VADDS32,    ///< V[dst] = V[src1] + V[src2] elementwise.
  VFMULAD64,  ///< V[dst] += V[src1] * V[src2] on 16 FP64 lanes (the
              ///< register file viewed as doubles; half the FP32 rate).
  VADDD64,    ///< V[dst] = V[src1] + V[src2] on 16 FP64 lanes.
  // Half-width (FP16/BF16) extension. A vector register holds 64 packed
  // halves; each FP32 lane word is one k-adjacent pair (hi<<16 | lo).
  VLDH,       ///< V[dst] = 64 packed halves (128 B) at AM[S[abase] + imm].
  VSTH,       ///< AM[S[abase] + imm] = V[dst] (64 packed halves, 128 B).
  VFMULAH32,  ///< 2-way dot-product accumulate into FP32: per lane l,
              ///< V[dst][l] += widen(a.lo)*widen(b.lo) + widen(a.hi)*
              ///< widen(b.hi) with a=V[src1][l], b=V[src2][l] as half
              ///< pairs; inner FMA chain, no intermediate rounding beyond
              ///< the two FP32 fmas. imm: 0 = FP16, 1 = BF16. Counts 128
              ///< flops/op — twice the FP32 FMA rate.
  SVBCASTH,   ///< V[dst][*] = lo32(S[src1]) as a packed half pair;
              ///< V[dst+1][*] = hi32(S[src1]). Splats 4 half scalars per
              ///< cycle through the one broadcast slot (same 64-bit
              ///< scalar bandwidth as SVBCAST2).
  // Control.
  SBR,        ///< --S[dst]; if S[dst] != 0, branch to bundle `imm` after the
              ///< branch delay (lat_sbr - 1 delay-slot bundles execute).
  NOP,
  kCount,     ///< Sentinel — keep last. Drives exhaustive-switch coverage
              ///< (tests iterate Opcodes up to kCount; every table below
              ///< must answer for each real opcode).
};

constexpr int kOpcodeCount = static_cast<int>(Opcode::kCount);

/// Functional units of one DSP core; each is a distinct VLIW issue slot.
/// Matches the rows of the paper's Tables I-III.
enum class Unit : std::uint8_t {
  SLS1,    ///< Scalar Load&Store 1
  SLS2,    ///< Scalar Load&Store 2
  SFMAC1,  ///< Scalar FMAC 1 (extract/move duty in the tables)
  SFMAC2,  ///< Scalar FMAC 2 (broadcast duty in the tables)
  SIEU,    ///< Scalar integer unit (pack / address arithmetic)
  VLS1,    ///< Vector Load&Store 1
  VLS2,    ///< Vector Load&Store 2
  VFMAC1,
  VFMAC2,
  VFMAC3,
  CU,      ///< Control unit (branches)
  kCount,
};

constexpr int kUnitCount = static_cast<int>(Unit::kCount);

const char* to_string(Opcode op);
const char* to_string(Unit u);

/// True if `u` is one of the five scalar-side slots.
bool is_scalar_unit(Unit u);

/// The set of units an opcode may issue on.
/// Returned as a bitmask over Unit values.
std::uint32_t admissible_units(Opcode op);

/// Cycles until an opcode's result is usable by a dependent instruction.
int op_latency(Opcode op, const MachineConfig& mc);

/// One operation within a bundle. Field meaning depends on the opcode; see
/// the Opcode documentation. `unit` is chosen by the scheduler and must be
/// admissible for the opcode.
struct Instr {
  Opcode op = Opcode::NOP;
  Unit unit = Unit::CU;
  std::uint8_t dst = 0;    ///< Destination register index.
  std::uint8_t src1 = 0;   ///< First source register.
  std::uint8_t src2 = 0;   ///< Second source register.
  std::uint8_t abase = 0;  ///< Scalar register holding the memory base.
  std::int32_t imm = 0;    ///< Byte offset / immediate / branch target.

  std::string to_text() const;
};

/// A VLIW bundle: the set of operations issued in one cycle.
struct Bundle {
  std::vector<Instr> ops;

  /// Validates structural constraints: each unit used at most once and each
  /// op on an admissible unit. Throws ContractViolation on failure.
  void validate() const;
};

/// A complete micro-kernel program: straight-line bundles with at most
/// backward SBR branches. Registers used for kernel arguments are part of
/// the program's calling convention (see kernelgen).
struct Program {
  std::string name;
  std::vector<Bundle> bundles;

  /// Full structural validation: every bundle, plus branch targets in range.
  void validate() const;

  /// Human-readable disassembly (one line per bundle).
  std::string disassemble() const;

  std::size_t op_count() const;
};

/// Builders; each checks field sanity for its opcode.
Instr make_sldw(std::uint8_t dst, std::uint8_t abase, std::int32_t off);
Instr make_slddw(std::uint8_t dst, std::uint8_t abase, std::int32_t off);
Instr make_smovi(std::uint8_t dst, std::int32_t imm);
Instr make_saddi(std::uint8_t dst, std::uint8_t src1, std::int32_t imm);
Instr make_sfexts32l(std::uint8_t dst, std::uint8_t src1);
Instr make_svbcast(std::uint8_t vdst, std::uint8_t ssrc);
Instr make_svbcast2(std::uint8_t vdst, std::uint8_t ssrc);
Instr make_svbcastd(std::uint8_t vdst, std::uint8_t ssrc);
Instr make_vldw(std::uint8_t vdst, std::uint8_t abase, std::int32_t off);
Instr make_vlddw(std::uint8_t vdst, std::uint8_t abase, std::int32_t off);
Instr make_vstw(std::uint8_t vsrc, std::uint8_t abase, std::int32_t off);
Instr make_vstdw(std::uint8_t vsrc, std::uint8_t abase, std::int32_t off);
Instr make_vmovi(std::uint8_t vdst, float value);
Instr make_vfmulas32(std::uint8_t vacc, std::uint8_t va, std::uint8_t vb);
Instr make_vadds32(std::uint8_t vdst, std::uint8_t va, std::uint8_t vb);
Instr make_vfmulad64(std::uint8_t vacc, std::uint8_t va, std::uint8_t vb);
Instr make_vaddd64(std::uint8_t vdst, std::uint8_t va, std::uint8_t vb);
Instr make_vldh(std::uint8_t vdst, std::uint8_t abase, std::int32_t off);
/// `bf16` selects the half format widened by the dot-product (imm field).
Instr make_vfmulah32(std::uint8_t vacc, std::uint8_t va, std::uint8_t vb,
                     bool bf16);
Instr make_svbcasth(std::uint8_t vdst, std::uint8_t ssrc);
Instr make_sbr(std::uint8_t counter, std::int32_t target_bundle);

}  // namespace ftm::isa
