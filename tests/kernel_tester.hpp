// KernelTester: one builder that checks MicroKernel::run_fast against the
// detailed core, in the micro-kernel tester idiom (SNIPPETS.md Snippet 1):
//
//   KernelTester().dtype(DType::F16).ms(7).ka(10).na(33).load_c(false)
//       .test();
//
// test() builds the kernel, fills A, B and C with seeded random values of
// the kernel's dtype, runs run_detailed on a DspCore, then runs run_fast
// on the chosen tier (default: every tier this host supports) and
// requires C to match the detailed C bit for bit, so all tiers also agree
// with each other. With load_c off, C starts as NaN: a tile row or
// column strip that run_fast never writes keeps its NaN and fails.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/sim/core.hpp"
#include "ftm/util/half.hpp"
#include "ftm/util/prng.hpp"

namespace ftm::kernelgen {

class KernelTester {
 public:
  KernelTester& ms(int v) {
    spec_.ms = v;
    return *this;
  }
  KernelTester& ka(int v) {
    spec_.ka = v;
    return *this;
  }
  KernelTester& na(int v) {
    spec_.na = v;
    return *this;
  }
  KernelTester& load_c(bool v) {
    spec_.load_c = v;
    return *this;
  }
  KernelTester& dtype(DType v) {
    spec_.dtype = v;
    return *this;
  }
  /// Checks one tier only (it must be supported on this host).
  KernelTester& tier(hostsimd::Tier v) {
    tier_ = v;
    return *this;
  }

  /// What a checked kernel exercised: its ku and run_fast's tile rows.
  struct Reached {
    int ku;
    int tile_rows;
  };

  /// Runs the check (gtest failures on mismatch) and returns what the
  /// kernel exercised, so sweeps can assert their coverage.
  Reached test() const {
    switch (spec_.dtype) {
      case DType::F32:
        return run<float, float, float>();
      case DType::F64:
        return run<double, double, double>();
      case DType::F16:
      case DType::BF16:
        return run<std::uint16_t, std::uint32_t, float>();
    }
    return {};
  }

 private:
  /// Every tier this host can run, scalar first.
  static std::vector<hostsimd::Tier> supported_tiers() {
    std::vector<hostsimd::Tier> out = {hostsimd::Tier::Scalar};
    if (hostsimd::best_tier() != hostsimd::Tier::Scalar) {
      out.push_back(hostsimd::best_tier());
    }
    return out;
  }

  template <class T>
  T random(Prng& rng) const {
    const bool bf = spec_.dtype == DType::BF16;
    if constexpr (std::is_same_v<T, std::uint16_t>) {
      // Every seventh value is tiny, so some FP16 operands are subnormal.
      const float scale = rng.next_below(7) == 0 ? 1e-6f : 1.0f;
      return util::f32_to_half(rng.next_float(-1, 1) * scale, bf);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      const std::uint16_t lo = random<std::uint16_t>(rng);
      const std::uint16_t hi = random<std::uint16_t>(rng);
      return lo | static_cast<std::uint32_t>(hi) << 16;
    } else {
      return static_cast<T>(rng.next_double() * 2.0 - 1.0);
    }
  }

  template <class T>
  std::vector<T> operand(Prng& rng, std::size_t bytes) const {
    std::vector<T> v(bytes / sizeof(T));
    for (T& x : v) x = random<T>(rng);
    return v;
  }

  template <class A, class B, class C>
  Reached run() const {
    const isa::MachineConfig& mc = isa::default_machine();
    const MicroKernel uk(spec_, mc);
    const std::string what =
        std::string(to_string(spec_.dtype)) + " ms=" +
        std::to_string(spec_.ms) + " ka=" + std::to_string(spec_.ka) +
        " na=" + std::to_string(spec_.na) +
        " load_c=" + std::to_string(spec_.load_c) +
        " ku=" + std::to_string(uk.tiling().ku);

    Prng rng(static_cast<std::uint64_t>(spec_.ms) * 1000003u +
             static_cast<std::uint64_t>(spec_.ka) * 1009u +
             static_cast<std::uint64_t>(spec_.na) * 31u +
             static_cast<std::uint64_t>(spec_.dtype) * 7u + spec_.load_c);
    const std::vector<A> a = operand<A>(rng, spec_.a_bytes());
    const std::vector<B> b = operand<B>(rng, spec_.b_bytes());
    std::vector<C> c0 = operand<C>(rng, spec_.c_bytes());
    if (!spec_.load_c) {
      for (C& x : c0) x = std::numeric_limits<C>::quiet_NaN();
    }

    sim::DspCore core(mc);
    const auto sa = core.sm().alloc(spec_.a_bytes());
    const auto sb = core.am().alloc(spec_.b_bytes());
    const auto sc = core.am().alloc(spec_.c_bytes());
    std::memcpy(core.sm().raw(sa.offset, spec_.a_bytes()), a.data(),
                spec_.a_bytes());
    std::memcpy(core.am().raw(sb.offset, spec_.b_bytes()), b.data(),
                spec_.b_bytes());
    std::memcpy(core.am().raw(sc.offset, spec_.c_bytes()), c0.data(),
                spec_.c_bytes());
    uk.run_detailed(core, sa.offset, sb.offset, sc.offset);
    const std::uint8_t* detailed = core.am().raw(sc.offset, spec_.c_bytes());

    const hostsimd::Tier prev = hostsimd::active_tier();
    const std::vector<hostsimd::Tier> tiers =
        tier_ ? std::vector<hostsimd::Tier>{*tier_} : supported_tiers();
    for (const hostsimd::Tier t : tiers) {
      EXPECT_EQ(hostsimd::set_active_tier(t), t) << hostsimd::to_string(t);
      std::vector<C> c = c0;
      EXPECT_EQ(uk.run_fast(a.data(), b.data(), c.data()), uk.cycles());
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (std::memcmp(&c[i], detailed + i * sizeof(C), sizeof(C)) != 0) {
          ADD_FAILURE() << what << " tier " << hostsimd::to_string(t)
                        << ": C element " << i << " (row "
                        << i / spec_.am_row_elems() << ") differs";
          break;
        }
      }
    }
    hostsimd::set_active_tier(prev);
    return {uk.tiling().ku, uk.host_tile_rows()};
  }

  KernelSpec spec_;
  std::optional<hostsimd::Tier> tier_;
};

}  // namespace ftm::kernelgen
