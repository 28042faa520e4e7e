#include "ftm/isa/isa.hpp"

#include <array>
#include <cstring>
#include <sstream>

namespace ftm::isa {

namespace {

constexpr std::uint32_t bit(Unit u) { return 1u << static_cast<int>(u); }

}  // namespace

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::SLDW: return "SLDW";
    case Opcode::SLDDW: return "SLDDW";
    case Opcode::SMOVI: return "SMOVI";
    case Opcode::SADDI: return "SADDI";
    case Opcode::SFEXTS32L: return "SFEXTS32L";
    case Opcode::SBALE2H: return "SBALE2H";
    case Opcode::SVBCAST: return "SVBCAST";
    case Opcode::SVBCAST2: return "SVBCAST2";
    case Opcode::SVBCASTD: return "SVBCASTD";
    case Opcode::VLDW: return "VLDW";
    case Opcode::VLDDW: return "VLDDW";
    case Opcode::VSTW: return "VSTW";
    case Opcode::VSTDW: return "VSTDW";
    case Opcode::VMOVI: return "VMOVI";
    case Opcode::VFMULAS32: return "VFMULAS32";
    case Opcode::VADDS32: return "VADDS32";
    case Opcode::VFMULAD64: return "VFMULAD64";
    case Opcode::VADDD64: return "VADDD64";
    case Opcode::VLDH: return "VLDH";
    case Opcode::VSTH: return "VSTH";
    case Opcode::VFMULAH32: return "VFMULAH32";
    case Opcode::SVBCASTH: return "SVBCASTH";
    case Opcode::SBR: return "SBR";
    case Opcode::NOP: return "NOP";
    case Opcode::kCount: break;
  }
  return "?";
}

const char* to_string(Unit u) {
  switch (u) {
    case Unit::SLS1: return "SLS1";
    case Unit::SLS2: return "SLS2";
    case Unit::SFMAC1: return "SFMAC1";
    case Unit::SFMAC2: return "SFMAC2";
    case Unit::SIEU: return "SIEU";
    case Unit::VLS1: return "VLS1";
    case Unit::VLS2: return "VLS2";
    case Unit::VFMAC1: return "VFMAC1";
    case Unit::VFMAC2: return "VFMAC2";
    case Unit::VFMAC3: return "VFMAC3";
    case Unit::CU: return "CU";
    case Unit::kCount: break;
  }
  return "?";
}

bool is_scalar_unit(Unit u) {
  switch (u) {
    case Unit::SLS1:
    case Unit::SLS2:
    case Unit::SFMAC1:
    case Unit::SFMAC2:
    case Unit::SIEU:
      return true;
    default:
      return false;
  }
}

std::uint32_t admissible_units(Opcode op) {
  switch (op) {
    case Opcode::SLDW:
    case Opcode::SLDDW:
      return bit(Unit::SLS1) | bit(Unit::SLS2);
    case Opcode::SMOVI:
    case Opcode::SADDI:
      return bit(Unit::SIEU) | bit(Unit::SLS1) | bit(Unit::SLS2);
    case Opcode::SFEXTS32L:
      return bit(Unit::SFMAC1) | bit(Unit::SFMAC2);
    case Opcode::SBALE2H:
      return bit(Unit::SIEU);
    case Opcode::SVBCAST:
    case Opcode::SVBCAST2:
    case Opcode::SVBCASTD:
    case Opcode::SVBCASTH:
      // One broadcast-issuing slot per cycle enforces the paper's two
      // FP32 scalars/cycle ceiling (SVBCAST2 carries two; SVBCASTD's one
      // double and SVBCASTH's four halves consume the same 64 bits).
      return bit(Unit::SFMAC2);
    case Opcode::VLDW:
    case Opcode::VLDDW:
    case Opcode::VSTW:
    case Opcode::VSTDW:
    case Opcode::VLDH:
    case Opcode::VSTH:
      return bit(Unit::VLS1) | bit(Unit::VLS2);
    case Opcode::VMOVI:
    case Opcode::VFMULAS32:
    case Opcode::VADDS32:
    case Opcode::VFMULAD64:
    case Opcode::VADDD64:
    case Opcode::VFMULAH32:
      return bit(Unit::VFMAC1) | bit(Unit::VFMAC2) | bit(Unit::VFMAC3);
    case Opcode::SBR:
      return bit(Unit::CU);
    case Opcode::NOP:
      return ~0u;
    case Opcode::kCount:
      break;
  }
  return 0;
}

int op_latency(Opcode op, const MachineConfig& mc) {
  switch (op) {
    case Opcode::SLDW:
    case Opcode::SLDDW:
      return mc.lat_sldw;
    case Opcode::SMOVI:
      return mc.lat_smovi;
    case Opcode::SADDI:
      return mc.lat_saddi;
    case Opcode::SFEXTS32L:
      return mc.lat_sfext;
    case Opcode::SBALE2H:
      return mc.lat_sbale;
    case Opcode::SVBCAST:
    case Opcode::SVBCAST2:
    case Opcode::SVBCASTD:
    case Opcode::SVBCASTH:
      return mc.lat_bcast;
    case Opcode::VLDW:
    case Opcode::VLDDW:
    case Opcode::VLDH:
      return mc.lat_vldw;
    case Opcode::VSTW:
    case Opcode::VSTDW:
    case Opcode::VSTH:
      return mc.lat_vstw;
    case Opcode::VMOVI:
      return 1;
    case Opcode::VFMULAS32:
    case Opcode::VADDS32:
    case Opcode::VFMULAD64:
    case Opcode::VADDD64:
    case Opcode::VFMULAH32:
      return mc.lat_vfmac;
    case Opcode::SBR:
      return mc.lat_sbr;
    case Opcode::NOP:
      return 1;
    case Opcode::kCount:
      break;
  }
  return 1;
}

std::string Instr::to_text() const {
  std::ostringstream os;
  os << to_string(op);
  switch (op) {
    case Opcode::SLDW:
    case Opcode::SLDDW:
      os << " S" << int(dst) << ", SM[S" << int(abase) << "+" << imm << "]";
      break;
    case Opcode::SMOVI:
      os << " S" << int(dst) << ", #" << imm;
      break;
    case Opcode::SADDI:
      os << " S" << int(dst) << ", S" << int(src1) << ", #" << imm;
      break;
    case Opcode::SFEXTS32L:
      os << " S" << int(dst) << ", S" << int(src1);
      break;
    case Opcode::SBALE2H:
      os << " S" << int(dst) << ", S" << int(src1) << ", S" << int(src2);
      break;
    case Opcode::SVBCAST:
      os << " V" << int(dst) << ", S" << int(src1);
      break;
    case Opcode::SVBCAST2:
      os << " V" << int(dst) << ":V" << int(dst) + 1 << ", S" << int(src1);
      break;
    case Opcode::SVBCASTD:
      os << " V" << int(dst) << ", S" << int(src1) << " (f64)";
      break;
    case Opcode::SVBCASTH:
      os << " V" << int(dst) << ":V" << int(dst) + 1 << ", S" << int(src1)
         << " (h2)";
      break;
    case Opcode::VLDW:
      os << " V" << int(dst) << ", AM[S" << int(abase) << "+" << imm << "]";
      break;
    case Opcode::VLDH:
      os << " V" << int(dst) << ", AM[S" << int(abase) << "+" << imm
         << "] (h64)";
      break;
    case Opcode::VSTH:
      os << " AM[S" << int(abase) << "+" << imm << "], V" << int(src1)
         << " (h64)";
      break;
    case Opcode::VLDDW:
      os << " V" << int(dst) << ":V" << int(dst) + 1 << ", AM[S" << int(abase)
         << "+" << imm << "]";
      break;
    case Opcode::VSTW:
      os << " AM[S" << int(abase) << "+" << imm << "], V" << int(src1);
      break;
    case Opcode::VSTDW:
      os << " AM[S" << int(abase) << "+" << imm << "], V" << int(src1) << ":V"
         << int(src1) + 1;
      break;
    case Opcode::VMOVI: {
      float f;
      std::memcpy(&f, &imm, sizeof(f));
      os << " V" << int(dst) << ", #" << f;
      break;
    }
    case Opcode::VFMULAS32:
    case Opcode::VFMULAD64:
      os << " V" << int(dst) << " += V" << int(src1) << " * V" << int(src2);
      break;
    case Opcode::VFMULAH32:
      os << " V" << int(dst) << " += dot2(V" << int(src1) << ", V"
         << int(src2) << ") (" << (imm ? "bf16" : "f16") << ")";
      break;
    case Opcode::VADDS32:
    case Opcode::VADDD64:
      os << " V" << int(dst) << ", V" << int(src1) << ", V" << int(src2);
      break;
    case Opcode::SBR:
      os << " S" << int(dst) << ", @" << imm;
      break;
    case Opcode::NOP:
    case Opcode::kCount:
      break;
  }
  return os.str();
}

void Bundle::validate() const {
  std::array<bool, kUnitCount> used{};
  FTM_EXPECTS(ops.size() <= static_cast<std::size_t>(kUnitCount));
  for (const Instr& in : ops) {
    const int u = static_cast<int>(in.unit);
    FTM_EXPECTS(u >= 0 && u < kUnitCount);
    FTM_EXPECTS(!used[u]);  // one op per functional unit per cycle
    used[u] = true;
    FTM_EXPECTS((admissible_units(in.op) & (1u << u)) != 0);
  }
}

void Program::validate() const {
  for (const Bundle& b : bundles) {
    b.validate();
    for (const Instr& in : b.ops) {
      if (in.op == Opcode::SBR) {
        FTM_EXPECTS(in.imm >= 0 &&
                    static_cast<std::size_t>(in.imm) < bundles.size());
      }
    }
  }
}

std::string Program::disassemble() const {
  std::ostringstream os;
  os << "; kernel " << name << " (" << bundles.size() << " bundles, "
     << op_count() << " ops)\n";
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    os << i << ":";
    for (const Instr& in : bundles[i].ops) {
      os << "  [" << to_string(in.unit) << "] " << in.to_text() << ";";
    }
    os << "\n";
  }
  return os.str();
}

std::size_t Program::op_count() const {
  std::size_t n = 0;
  for (const Bundle& b : bundles) n += b.ops.size();
  return n;
}

namespace {
Instr base(Opcode op) {
  Instr in;
  in.op = op;
  return in;
}
}  // namespace

Instr make_sldw(std::uint8_t dst, std::uint8_t abase, std::int32_t off) {
  Instr in = base(Opcode::SLDW);
  in.dst = dst;
  in.abase = abase;
  in.imm = off;
  return in;
}

Instr make_slddw(std::uint8_t dst, std::uint8_t abase, std::int32_t off) {
  Instr in = base(Opcode::SLDDW);
  in.dst = dst;
  in.abase = abase;
  in.imm = off;
  return in;
}

Instr make_smovi(std::uint8_t dst, std::int32_t imm) {
  Instr in = base(Opcode::SMOVI);
  in.dst = dst;
  in.imm = imm;
  return in;
}

Instr make_saddi(std::uint8_t dst, std::uint8_t src1, std::int32_t imm) {
  Instr in = base(Opcode::SADDI);
  in.dst = dst;
  in.src1 = src1;
  in.imm = imm;
  return in;
}

Instr make_sfexts32l(std::uint8_t dst, std::uint8_t src1) {
  Instr in = base(Opcode::SFEXTS32L);
  in.dst = dst;
  in.src1 = src1;
  return in;
}

Instr make_svbcast(std::uint8_t vdst, std::uint8_t ssrc) {
  Instr in = base(Opcode::SVBCAST);
  in.dst = vdst;
  in.src1 = ssrc;
  return in;
}

Instr make_svbcast2(std::uint8_t vdst, std::uint8_t ssrc) {
  FTM_EXPECTS(vdst < 255);
  Instr in = base(Opcode::SVBCAST2);
  in.dst = vdst;
  in.src1 = ssrc;
  return in;
}

Instr make_vldw(std::uint8_t vdst, std::uint8_t abase, std::int32_t off) {
  Instr in = base(Opcode::VLDW);
  in.dst = vdst;
  in.abase = abase;
  in.imm = off;
  return in;
}

Instr make_vlddw(std::uint8_t vdst, std::uint8_t abase, std::int32_t off) {
  FTM_EXPECTS(vdst < 255);
  Instr in = base(Opcode::VLDDW);
  in.dst = vdst;
  in.abase = abase;
  in.imm = off;
  return in;
}

Instr make_vstw(std::uint8_t vsrc, std::uint8_t abase, std::int32_t off) {
  Instr in = base(Opcode::VSTW);
  in.src1 = vsrc;
  in.abase = abase;
  in.imm = off;
  return in;
}

Instr make_vstdw(std::uint8_t vsrc, std::uint8_t abase, std::int32_t off) {
  FTM_EXPECTS(vsrc < 255);
  Instr in = base(Opcode::VSTDW);
  in.src1 = vsrc;
  in.abase = abase;
  in.imm = off;
  return in;
}

Instr make_vmovi(std::uint8_t vdst, float value) {
  Instr in = base(Opcode::VMOVI);
  in.dst = vdst;
  std::memcpy(&in.imm, &value, sizeof(value));
  return in;
}

Instr make_vfmulas32(std::uint8_t vacc, std::uint8_t va, std::uint8_t vb) {
  Instr in = base(Opcode::VFMULAS32);
  in.dst = vacc;
  in.src1 = va;
  in.src2 = vb;
  return in;
}

Instr make_vadds32(std::uint8_t vdst, std::uint8_t va, std::uint8_t vb) {
  Instr in = base(Opcode::VADDS32);
  in.dst = vdst;
  in.src1 = va;
  in.src2 = vb;
  return in;
}

Instr make_svbcastd(std::uint8_t vdst, std::uint8_t ssrc) {
  Instr in = base(Opcode::SVBCASTD);
  in.dst = vdst;
  in.src1 = ssrc;
  return in;
}

Instr make_vfmulad64(std::uint8_t vacc, std::uint8_t va, std::uint8_t vb) {
  Instr in = base(Opcode::VFMULAD64);
  in.dst = vacc;
  in.src1 = va;
  in.src2 = vb;
  return in;
}

Instr make_vaddd64(std::uint8_t vdst, std::uint8_t va, std::uint8_t vb) {
  Instr in = base(Opcode::VADDD64);
  in.dst = vdst;
  in.src1 = va;
  in.src2 = vb;
  return in;
}

Instr make_vldh(std::uint8_t vdst, std::uint8_t abase, std::int32_t off) {
  Instr in = base(Opcode::VLDH);
  in.dst = vdst;
  in.abase = abase;
  in.imm = off;
  return in;
}

Instr make_vfmulah32(std::uint8_t vacc, std::uint8_t va, std::uint8_t vb,
                     bool bf16) {
  Instr in = base(Opcode::VFMULAH32);
  in.dst = vacc;
  in.src1 = va;
  in.src2 = vb;
  in.imm = bf16 ? 1 : 0;
  return in;
}

Instr make_svbcasth(std::uint8_t vdst, std::uint8_t ssrc) {
  FTM_EXPECTS(vdst < 255);
  Instr in = base(Opcode::SVBCASTH);
  in.dst = vdst;
  in.src1 = ssrc;
  return in;
}

Instr make_sbr(std::uint8_t counter, std::int32_t target_bundle) {
  Instr in = base(Opcode::SBR);
  in.dst = counter;
  in.imm = target_bundle;
  return in;
}

}  // namespace ftm::isa
