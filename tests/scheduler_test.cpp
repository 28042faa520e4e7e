#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "ftm/kernelgen/scheduler.hpp"
#include "ftm/sim/core.hpp"
#include "ftm/util/prng.hpp"

namespace ftm::kernelgen {
namespace {

using isa::Instr;
using isa::MachineConfig;
using isa::Opcode;
using isa::Unit;

const MachineConfig& mc() { return isa::default_machine(); }

TEST(OpEffects, FmaReadsAccumulator) {
  const OpEffects e = op_effects(isa::make_vfmulas32(3, 4, 5));
  EXPECT_EQ(e.writes, std::vector<int>{64 + 3});
  const std::set<int> reads(e.reads.begin(), e.reads.end());
  EXPECT_TRUE(reads.count(64 + 3));  // RMW accumulator
  EXPECT_TRUE(reads.count(64 + 4));
  EXPECT_TRUE(reads.count(64 + 5));
}

TEST(OpEffects, Svbcast2WritesPair) {
  const OpEffects e = op_effects(isa::make_svbcast2(10, 2));
  EXPECT_EQ(e.writes.size(), 2u);
  EXPECT_EQ(e.writes[0], 64 + 10);
  EXPECT_EQ(e.writes[1], 64 + 11);
  EXPECT_EQ(e.reads, std::vector<int>{2});
}

TEST(OpEffects, LoadsReadBaseRegister) {
  const OpEffects e = op_effects(isa::make_vldw(9, 4, 128));
  EXPECT_EQ(e.reads, std::vector<int>{4});
  EXPECT_EQ(e.writes, std::vector<int>{64 + 9});
}

TEST(Scheduler, IndependentFmasPackThreePerCycle) {
  std::vector<Instr> ops;
  for (int i = 0; i < 9; ++i) {
    ops.push_back(isa::make_vfmulas32(static_cast<std::uint8_t>(i),
                                      static_cast<std::uint8_t>(20 + i),
                                      static_cast<std::uint8_t>(40 + i)));
  }
  ScheduleStats st;
  const auto bundles = schedule_section(ops, mc(), &st);
  EXPECT_EQ(st.cycles, 3);  // 9 FMAs / 3 units
  for (const auto& b : bundles) EXPECT_EQ(b.ops.size(), 3u);
}

TEST(Scheduler, RawDependenceRespectsLatency) {
  std::vector<Instr> ops;
  ops.push_back(isa::make_vldw(1, 0, 0));
  ops.push_back(isa::make_vfmulas32(2, 1, 3));  // needs V1
  const auto bundles = schedule_section(ops, mc(), nullptr);
  // The FMA must sit at cycle >= lat_vldw.
  ASSERT_GE(static_cast<int>(bundles.size()), mc().lat_vldw + 1);
  bool found = false;
  for (std::size_t c = 0; c < bundles.size(); ++c) {
    for (const auto& op : bundles[c].ops) {
      if (op.op == Opcode::VFMULAS32) {
        EXPECT_GE(static_cast<int>(c), mc().lat_vldw);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(Scheduler, WarNeverReordersWriteBeforeRead) {
  // read V1 (FMA), then overwrite V1 (load): load must come strictly after.
  std::vector<Instr> ops;
  ops.push_back(isa::make_vfmulas32(2, 1, 3));
  ops.push_back(isa::make_vldw(1, 0, 0));
  const auto bundles = schedule_section(ops, mc(), nullptr);
  int read_cycle = -1, write_cycle = -1;
  for (std::size_t c = 0; c < bundles.size(); ++c) {
    for (const auto& op : bundles[c].ops) {
      if (op.op == Opcode::VFMULAS32) read_cycle = static_cast<int>(c);
      if (op.op == Opcode::VLDW) write_cycle = static_cast<int>(c);
    }
  }
  EXPECT_GT(write_cycle, read_cycle);
}

TEST(Scheduler, WawKeepsOrder) {
  std::vector<Instr> ops;
  ops.push_back(isa::make_vmovi(1, 1.0f));
  ops.push_back(isa::make_vmovi(1, 2.0f));
  const auto bundles = schedule_section(ops, mc(), nullptr);
  // Two writers of V1 cannot share a cycle.
  for (const auto& b : bundles) {
    int writers = 0;
    for (const auto& op : b.ops)
      if (op.op == Opcode::VMOVI && op.dst == 1) ++writers;
    EXPECT_LE(writers, 1);
  }
}

TEST(Scheduler, StructuralLimitTwoLoadsPerCycle) {
  std::vector<Instr> ops;
  for (int i = 0; i < 8; ++i)
    ops.push_back(isa::make_vldw(static_cast<std::uint8_t>(i), 0, i * 128));
  ScheduleStats st;
  const auto bundles = schedule_section(ops, mc(), &st);
  EXPECT_EQ(st.cycles, 4);  // two VLS units
  for (const auto& b : bundles) EXPECT_LE(b.ops.size(), 2u);
}

TEST(Scheduler, BroadcastSlotSerializes) {
  std::vector<Instr> ops;
  for (int i = 0; i < 4; ++i)
    ops.push_back(isa::make_svbcast(static_cast<std::uint8_t>(10 + i),
                                    static_cast<std::uint8_t>(i)));
  ScheduleStats st;
  schedule_section(ops, mc(), &st);
  EXPECT_EQ(st.cycles, 4);  // one broadcast-capable unit
}

TEST(Scheduler, RejectsSbr) {
  std::vector<Instr> ops{isa::make_sbr(3, 0)};
  EXPECT_THROW(schedule_section(ops, mc(), nullptr), ContractViolation);
}

TEST(Scheduler, BundlesValidate) {
  std::vector<Instr> ops;
  for (int i = 0; i < 20; ++i) {
    ops.push_back(isa::make_sldw(static_cast<std::uint8_t>(8 + i % 8), 0,
                                 4 * i));
    ops.push_back(isa::make_vfmulas32(static_cast<std::uint8_t>(i % 4),
                                      static_cast<std::uint8_t>(30),
                                      static_cast<std::uint8_t>(31)));
  }
  const auto bundles = schedule_section(ops, mc(), nullptr);
  for (const auto& b : bundles) EXPECT_NO_THROW(b.validate());
}

}  // namespace
}  // namespace ftm::kernelgen

namespace ftm::kernelgen {
namespace {

// --- Property test: scheduling preserves program semantics ------------------
//
// Random well-formed instruction sequences are executed two ways: one op
// per bundle in program order (the semantic reference) and list-scheduled
// into packed bundles. Register state after both runs must be identical —
// this checks the RAW/WAR/WAW edge construction against the core model's
// actual in-bundle execution order.

std::vector<isa::Instr> random_sequence(ftm::Prng& rng, int n) {
  std::vector<isa::Instr> ops;
  auto sreg = [&] { return static_cast<std::uint8_t>(8 + rng.next_below(16)); };
  auto vreg = [&] { return static_cast<std::uint8_t>(rng.next_below(30)); };
  for (int i = 0; i < n; ++i) {
    switch (rng.next_below(9)) {
      case 0:
        ops.push_back(isa::make_sldw(sreg(), 0, 4 * (int)rng.next_below(64)));
        break;
      case 1:
        ops.push_back(
            isa::make_slddw(sreg(), 0, 8 * (int)rng.next_below(32)));
        break;
      case 2:
        ops.push_back(isa::make_sfexts32l(sreg(), sreg()));
        break;
      case 3:
        ops.push_back(isa::make_svbcast(vreg(), sreg()));
        break;
      case 4: {
        std::uint8_t v = static_cast<std::uint8_t>(rng.next_below(29));
        ops.push_back(isa::make_svbcast2(v, sreg()));
        break;
      }
      case 5:
        ops.push_back(
            isa::make_vldw(vreg(), 1, 128 * (int)rng.next_below(16)));
        break;
      case 6:
        ops.push_back(isa::make_vfmulas32(vreg(), vreg(), vreg()));
        break;
      case 7:
        ops.push_back(isa::make_vadds32(vreg(), vreg(), vreg()));
        break;
      default:
        ops.push_back(isa::make_saddi(sreg(), sreg(),
                                      (int)rng.next_below(100)));
        break;
    }
  }
  return ops;
}

void run_equivalence_case(std::uint64_t seed, int n) {
  ftm::Prng rng(seed);
  const std::vector<isa::Instr> ops = random_sequence(rng, n);

  auto setup = [&](sim::DspCore& core) {
    core.reset_registers();
    core.sregs().v[0] = 0;  // SM base for scalar loads
    core.sregs().v[1] = 0;  // AM base for vector loads
    // Deterministic memory contents in one 4 KiB region of each pad.
    core.sm().alloc(1024 * 4);
    core.am().alloc(1024 * 4);
    for (int i = 0; i < 1024; ++i) {
      float v = static_cast<float>((i * 2654435761u) % 1000) * 0.001f;
      std::memcpy(core.sm().raw(i * 4, 4), &v, 4);
      std::memcpy(core.am().raw(i * 4, 4), &v, 4);
    }
  };

  // Reference: one op per bundle, program order.
  sim::DspCore ref;
  setup(ref);
  isa::Program linear;
  linear.name = "linear";
  for (const isa::Instr& raw : ops) {
    isa::Instr in = raw;
    for (int u = 0; u < isa::kUnitCount; ++u) {
      if (isa::admissible_units(raw.op) & (1u << u)) {
        in.unit = static_cast<isa::Unit>(u);
        break;
      }
    }
    isa::Bundle b;
    b.ops = {in};
    linear.bundles.push_back(b);
  }
  ref.run(linear);

  // Scheduled: packed bundles.
  sim::DspCore sched;
  setup(sched);
  isa::Program packed;
  packed.name = "packed";
  packed.bundles = schedule_section(ops, isa::default_machine(), nullptr);
  sched.run(packed);

  for (int r = 0; r < 64; ++r) {
    ASSERT_EQ(ref.sregs().v[r], sched.sregs().v[r])
        << "scalar reg " << r << " seed " << seed;
  }
  for (int v = 0; v < 64; ++v) {
    for (int l = 0; l < 32; ++l) {
      ASSERT_EQ(ref.vregs().v[v][l], sched.vregs().v[v][l])
          << "vector reg " << v << " lane " << l << " seed " << seed;
    }
  }
}

class SchedulerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerEquivalence, PackedMatchesLinearExecution) {
  run_equivalence_case(1000 + GetParam(), 60 + GetParam() * 7);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SchedulerEquivalence,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace ftm::kernelgen
