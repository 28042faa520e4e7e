#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "ftm/sim/cluster.hpp"
#include "ftm/sim/core.hpp"
#include "ftm/sim/dma.hpp"
#include "ftm/sim/scratchpad.hpp"

namespace ftm::sim {
namespace {

using isa::Bundle;
using isa::Instr;
using isa::Opcode;
using isa::Program;
using isa::Unit;

Instr on(Instr i, Unit u) {
  i.unit = u;
  return i;
}

TEST(Scratchpad, AllocAndCapacity) {
  Scratchpad sp("T", 1024);
  const Region a = sp.alloc(100);
  EXPECT_EQ(a.offset, 0u);
  const Region b = sp.alloc(100);
  EXPECT_EQ(b.offset % 64, 0u);
  EXPECT_GE(b.offset, 100u);
  EXPECT_THROW(sp.alloc(2000), ContractViolation);
  sp.reset();
  EXPECT_EQ(sp.alloc(1024).offset, 0u);
}

TEST(Scratchpad, OverflowMessageNamesMemory) {
  Scratchpad sp("AM", 64);
  try {
    sp.alloc(128);
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("AM"), std::string::npos);
  }
}

TEST(Scratchpad, BoundsCheckedAccess) {
  Scratchpad sp("T", 128);
  EXPECT_NO_THROW(sp.raw(0, 128));
  EXPECT_THROW(sp.raw(64, 65), ContractViolation);
  EXPECT_THROW(sp.f32(2, 1), ContractViolation);  // misaligned
}

static_assert(!std::is_copy_constructible_v<Scratchpad>,
              "a Scratchpad owns its mapping");
static_assert(std::is_nothrow_move_constructible_v<Scratchpad>);

TEST(Scratchpad, FreshBytesReadZero) {
  Scratchpad sp("GSM", 6u * 1024 * 1024);
  const Region all = sp.alloc(sp.capacity());
  const std::uint8_t* p = sp.raw(all.offset, all.bytes);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < all.bytes; ++i) nonzero += p[i] != 0;
  EXPECT_EQ(nonzero, 0u);
}

TEST(Scratchpad, ZeroCapacityRejectsNonEmptyAlloc) {
  Scratchpad sp("Z", 0);
  EXPECT_EQ(sp.capacity(), 0u);
  EXPECT_EQ(sp.raw(0, 0), nullptr);  // nothing mapped
  EXPECT_EQ(sp.alloc(0).offset, 0u);
  EXPECT_THROW(sp.alloc(1), ContractViolation);
  EXPECT_THROW(sp.raw(0, 1), ContractViolation);
}

#if defined(__SANITIZE_ADDRESS__)
// The bytes outside every allocated region are poisoned, so ASan sees an
// access the capacity bounds check cannot: past a region, or after reset().
TEST(Scratchpad, AsanReportsAccessOutsideRegions) {
  Scratchpad sp("AM", 4096);
  const Region r = sp.alloc(100);
  volatile std::uint8_t* p = sp.raw(0, sp.capacity());
  p[r.offset + 99] = 1;
  EXPECT_DEATH(p[r.offset + 100] = 1, "use-after-poison");
  sp.reset();
  EXPECT_DEATH((void)p[r.offset], "use-after-poison");
}
#endif

TEST(Dma, CostScalesWithBytesAndSharing) {
  const isa::MachineConfig mc;
  DmaRequest req;
  req.route = DmaRoute::DdrToSpm;
  req.rows = 1;
  req.row_bytes = 1 << 20;
  const auto c1 = dma_cost_cycles(mc, req, 1);
  const auto c8 = dma_cost_cycles(mc, req, 8);
  EXPECT_GT(c8, c1);
  // 8-way sharing costs ~8x the transfer part.
  const double t1 = static_cast<double>(c1 - mc.dma_startup_cycles);
  const double t8 = static_cast<double>(c8 - mc.dma_startup_cycles);
  EXPECT_NEAR(t8 / t1, 8.0, 0.01);
}

TEST(Dma, GsmRouteFasterThanDdr) {
  const isa::MachineConfig mc;
  DmaRequest req;
  req.route = DmaRoute::DdrToSpm;
  req.rows = 64;
  req.row_bytes = 4096;
  const auto ddr = dma_cost_cycles(mc, req, 1);
  req.route = DmaRoute::GsmToSpm;
  const auto gsm = dma_cost_cycles(mc, req, 1);
  EXPECT_LT(gsm, ddr);
}

TEST(Dma, CopyRespectsStrides) {
  std::vector<std::uint8_t> src(64), dst(64, 0);
  for (int i = 0; i < 64; ++i) src[i] = static_cast<std::uint8_t>(i);
  DmaRequest req;
  req.rows = 4;
  req.row_bytes = 8;
  req.src_stride = 16;
  req.dst_stride = 8;
  dma_copy(req, src.data(), dst.data());
  for (int r = 0; r < 4; ++r)
    for (int b = 0; b < 8; ++b)
      EXPECT_EQ(dst[r * 8 + b], src[r * 16 + b]);
}

TEST(Timeline, DmaOverlapsCompute) {
  CoreTimeline tl;
  const auto h = tl.dma_start(100);
  tl.compute(60);
  EXPECT_EQ(tl.now(), 60u);
  tl.dma_wait(h);
  EXPECT_EQ(tl.now(), 100u);  // overlapped: not 160
}

TEST(Timeline, EngineSerializesTransfers) {
  CoreTimeline tl;
  const auto h1 = tl.dma_start(100);
  const auto h2 = tl.dma_start(50);
  EXPECT_EQ(tl.done_time(h1), 100u);
  EXPECT_EQ(tl.done_time(h2), 150u);  // queued behind h1
  tl.dma_wait(h2);
  EXPECT_EQ(tl.now(), 150u);
}

TEST(Timeline, WaitOnFinishedTransferIsFree) {
  CoreTimeline tl;
  const auto h = tl.dma_start(10);
  tl.compute(100);
  EXPECT_TRUE(tl.dma_done(h));
  tl.dma_wait(h);
  EXPECT_EQ(tl.now(), 100u);  // already finished: no extra wait
}

// --- VLIW core execution ---------------------------------------------------

TEST(Core, ScalarMoveAndAdd) {
  DspCore core;
  Program p;
  p.name = "movadd";
  Bundle b1;
  b1.ops = {on(isa::make_smovi(1, 40), Unit::SIEU)};
  Bundle b2;
  b2.ops = {on(isa::make_saddi(2, 1, 2), Unit::SIEU)};
  p.bundles = {b1, b2};
  const ExecResult r = core.run(p);
  EXPECT_EQ(core.sregs().v[2], 42u);
  EXPECT_EQ(r.bundles, 2u);
}

TEST(Core, LoadBroadcastFma) {
  DspCore core;
  // SM: one float 3.0; AM: vector of 2.0s at offset 0, C accumulators 1.0
  // stored at offset 4096.
  core.sm().alloc(4);
  core.am().alloc(4096 + 32 * 4);
  float three = 3.0f;
  std::memcpy(core.sm().raw(0, 4), &three, 4);
  for (int l = 0; l < 32; ++l) {
    float two = 2.0f;
    std::memcpy(core.am().raw(l * 4, 4), &two, 4);
  }
  Program p;
  p.name = "fma";
  Bundle b1;
  b1.ops = {on(isa::make_smovi(0, 0), Unit::SIEU)};  // base = 0
  Bundle b2;
  b2.ops = {on(isa::make_sldw(8, 0, 0), Unit::SLS1),
            on(isa::make_vldw(10, 0, 0), Unit::VLS1),
            on(isa::make_vmovi(12, 1.0f), Unit::VFMAC1)};
  Bundle b3;
  b3.ops = {on(isa::make_svbcast(11, 8), Unit::SFMAC2)};
  Bundle b4;
  b4.ops = {on(isa::make_vfmulas32(12, 11, 10), Unit::VFMAC1)};
  Bundle b5;
  b5.ops = {on(isa::make_vstw(12, 0, 4096), Unit::VLS1)};
  p.bundles = {b1, b2, b3, b4, b5};
  const ExecResult r = core.run(p);
  const float* out = core.am().f32(4096, 32);
  for (int l = 0; l < 32; ++l) EXPECT_FLOAT_EQ(out[l], 1.0f + 3.0f * 2.0f);
  EXPECT_EQ(r.vfmac_ops, 1u);
  EXPECT_EQ(r.flops, 64u);
}

TEST(Core, ScoreboardStallsOnRawHazard) {
  DspCore core;
  const isa::MachineConfig& mc = core.machine();
  Program p;
  p.name = "raw";
  Bundle b1;
  b1.ops = {on(isa::make_vmovi(1, 2.0f), Unit::VFMAC1),
            on(isa::make_vmovi(2, 3.0f), Unit::VFMAC2),
            on(isa::make_vmovi(3, 0.0f), Unit::VFMAC3)};
  Bundle b2;  // depends on b1's FMA result immediately
  b2.ops = {on(isa::make_vfmulas32(3, 1, 2), Unit::VFMAC1)};
  Bundle b3;  // accumulator RAW: must wait lat_vfmac
  b3.ops = {on(isa::make_vfmulas32(3, 1, 2), Unit::VFMAC1)};
  p.bundles = {b1, b2, b3};
  const ExecResult r = core.run(p);
  EXPECT_EQ(r.stall_cycles, static_cast<std::uint64_t>(mc.lat_vfmac - 1));
  const float v = core.vregs().v[3][0];
  EXPECT_FLOAT_EQ(v, 12.0f);  // 0 + 2*3 + 2*3
}

TEST(Core, BackToBackIndependentOpsDontStall) {
  DspCore core;
  Program p;
  p.name = "nostall";
  for (int i = 0; i < 10; ++i) {
    Bundle b;
    b.ops = {on(isa::make_vmovi(static_cast<std::uint8_t>(i), 1.0f),
                Unit::VFMAC1)};
    p.bundles.push_back(b);
  }
  const ExecResult r = core.run(p);
  EXPECT_EQ(r.stall_cycles, 0u);
  EXPECT_EQ(r.cycles, 10u);
}

TEST(Core, SbrLoopsWithDelaySlots) {
  DspCore core;
  const int delay = core.machine().lat_sbr - 1;
  // Loop body: increment S10; SBR at the right distance from the end so the
  // delay-slot bundles sit inside the body.
  Program p;
  p.name = "loop";
  Bundle init;
  init.ops = {on(isa::make_smovi(3, 4), Unit::SIEU),
              on(isa::make_smovi(10, 0), Unit::SLS1)};
  p.bundles.push_back(init);
  const int body_begin = 1;
  const int body_len = 4;
  for (int i = 0; i < body_len; ++i) {
    Bundle b;
    b.ops = {on(isa::make_saddi(10, 10, 1), Unit::SIEU)};
    if (i == body_len - 1 - delay) {
      b.ops.push_back(on(isa::make_sbr(3, body_begin), Unit::CU));
    }
    p.bundles.push_back(b);
  }
  core.run(p);
  // 4 trips x 4 increments per trip.
  EXPECT_EQ(core.sregs().v[10], 16u);
  EXPECT_EQ(core.sregs().v[3], 0u);
}

TEST(Core, RunawayLoopHitsGuard) {
  DspCore core;
  Program p;
  p.name = "forever";
  Bundle init;
  init.ops = {on(isa::make_smovi(3, 1'000'000), Unit::SIEU)};
  Bundle body;
  body.ops = {on(isa::make_sbr(3, 1), Unit::CU)};
  Bundle d1, d2;  // delay slots
  p.bundles = {init, body, d1, d2};
  EXPECT_THROW(core.run(p, 1000), ContractViolation);
}

TEST(Core, Svbcast2WritesTwoRegisters) {
  DspCore core;
  float pair[2] = {1.5f, -2.5f};
  core.sm().alloc(sizeof(pair));
  std::memcpy(core.sm().raw(0, 8), pair, 8);
  Program p;
  p.name = "b2";
  Bundle b1;
  b1.ops = {on(isa::make_smovi(0, 0), Unit::SIEU)};
  Bundle b2;
  b2.ops = {on(isa::make_slddw(8, 0, 0), Unit::SLS1)};
  Bundle b3;
  b3.ops = {on(isa::make_svbcast2(20, 8), Unit::SFMAC2)};
  p.bundles = {b1, b2, b3};
  core.run(p);
  EXPECT_FLOAT_EQ(core.vregs().v[20][0], 1.5f);
  EXPECT_FLOAT_EQ(core.vregs().v[20][31], 1.5f);
  EXPECT_FLOAT_EQ(core.vregs().v[21][7], -2.5f);
}

TEST(Core, VlddwAndVstdw) {
  DspCore core;
  core.am().alloc(1024 + 64 * 4);  // source at 0, copy at 1024
  for (int i = 0; i < 64; ++i) {
    const float v = static_cast<float>(i);
    std::memcpy(core.am().raw(i * 4, 4), &v, 4);
  }
  Program p;
  p.name = "dw";
  Bundle b1;
  b1.ops = {on(isa::make_smovi(0, 0), Unit::SIEU)};
  Bundle b2;
  b2.ops = {on(isa::make_vlddw(4, 0, 0), Unit::VLS1)};
  Bundle b3;
  b3.ops = {on(isa::make_vstdw(4, 0, 1024), Unit::VLS2)};
  p.bundles = {b1, b2, b3};
  core.run(p);
  const float* out = core.am().f32(1024, 64);
  for (int i = 0; i < 64; ++i) EXPECT_FLOAT_EQ(out[i], static_cast<float>(i));
}

// --- Cluster -----------------------------------------------------------------

TEST(Cluster, HasEightCoresAndGsm) {
  Cluster cl;
  EXPECT_EQ(cl.num_cores(), 8);
  EXPECT_EQ(cl.gsm().capacity(), 6u * 1024 * 1024);
}

TEST(Cluster, BarrierAlignsActiveCores) {
  Cluster cl;
  cl.set_active_cores(4);
  cl.timeline(0).compute(100);
  cl.timeline(2).compute(250);
  cl.barrier();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(cl.timeline(c).now(), 250u);
}

TEST(Cluster, DmaFunctionalCopy) {
  Cluster cl;
  cl.set_active_cores(1);
  std::vector<float> host(32);
  for (int i = 0; i < 32; ++i) host[i] = static_cast<float>(i) * 0.5f;
  DmaRequest req;
  req.route = DmaRoute::DdrToSpm;
  req.rows = 1;
  req.row_bytes = 32 * 4;
  req.src_stride = req.dst_stride = 32 * 4;
  const Region dst = cl.core(0).am().alloc(32 * 4);
  const auto h = cl.dma_issue(0, req);
  dma_copy(req, reinterpret_cast<const std::uint8_t*>(host.data()),
           cl.core(0).am().raw(dst.offset, 32 * 4));
  cl.timeline(0).dma_wait(h);
  const float* got = cl.core(0).am().f32(dst.offset, 32);
  for (int i = 0; i < 32; ++i) EXPECT_FLOAT_EQ(got[i], host[i]);
  EXPECT_GT(cl.timeline(0).now(), 0u);
}

TEST(Cluster, TimingOnlyModeSkipsCopies) {
  Cluster cl;
  cl.set_functional(false);
  DmaRequest req;
  req.route = DmaRoute::DdrToSpm;
  req.rows = 1;
  req.row_bytes = 1024;
  req.src_stride = req.dst_stride = 1024;
  const auto h = cl.dma_issue(0, req);
  cl.timeline(0).dma_wait(h);
  EXPECT_GT(cl.timeline(0).now(), 0u);
}

#if defined(__linux__)
// Resident set size from /proc/self/statm, in bytes.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Cluster, ConstructionCommitsNoMemory) {
  constexpr int kClusters = 8;
  const isa::MachineConfig mc;
  const std::size_t pad_bytes =
      mc.gsm_bytes + static_cast<std::size_t>(mc.cores_per_cluster) *
                         (mc.sm_bytes + mc.am_bytes);
  ASSERT_GT(kClusters * pad_bytes, std::size_t{96} << 20);
  // ASan's poisoning writes one shadow byte per 8 scratchpad bytes.
  std::size_t budget = std::size_t{8} << 20;
#if defined(__SANITIZE_ADDRESS__)
  budget += kClusters * pad_bytes / 8;
#endif
  const std::size_t before = resident_bytes();
  std::vector<std::unique_ptr<Cluster>> clusters;
  for (int i = 0; i < kClusters; ++i) {
    clusters.push_back(std::make_unique<Cluster>(mc, i));
  }
  const std::size_t grown = resident_bytes() - before;
  EXPECT_LT(grown, budget) << "resident set grew by " << grown << " bytes";
}
#endif

TEST(Cluster, ResetClearsState) {
  Cluster cl;
  cl.core(0).am().alloc(1024);
  cl.gsm().alloc(2048);
  cl.timeline(0).compute(99);
  cl.reset();
  EXPECT_EQ(cl.core(0).am().allocated(), 0u);
  EXPECT_EQ(cl.gsm().allocated(), 0u);
  EXPECT_EQ(cl.timeline(0).now(), 0u);
}

}  // namespace
}  // namespace ftm::sim
