#pragma once

// IEEE-754 binary16 (FP16) and bfloat16 conversion primitives.
//
// These are the *reference semantics* for every half-width path in the
// project: the detailed simulator (VFMULAH32), the kernelgen fast path,
// and the hostsimd tiers all widen through these exact functions, which
// is what makes the bit-identity contract across tiers checkable.
//
// Policy (docs/precision.md):
//  - half -> float is exact (both formats embed losslessly in binary32;
//    NaN payloads are preserved left-aligned).
//  - float -> half rounds to nearest-even, with gradual underflow to
//    the target format's subnormals and overflow to infinity.
//  - float -> bf16 uses the round-to-nearest-even bias trick
//    (+0x7FFF + lsb); a truncating variant exists because several
//    production stacks truncate, and tests document the difference.
//  - NaNs are quieted on narrowing and keep the top payload bits.

#include <cstdint>
#include <cstring>

namespace ftm::util {

inline std::uint32_t f32_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

inline float f32_from_bits(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

/// Exact FP16 -> FP32 widening (subnormals normalized, NaN payload kept).
inline float f16_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  std::uint32_t exp = (h >> 10) & 0x1Fu;
  std::uint32_t man = h & 0x3FFu;
  std::uint32_t bits;
  if (exp == 0) {
    if (man == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal half: renormalize into the wider exponent range.
      int shift = 0;
      while ((man & 0x400u) == 0) {
        man <<= 1;
        ++shift;
      }
      // Value = man * 2^-24 with man in [2^(10-shift), 2^(11-shift)):
      // normalized exponent is -14 - shift, i.e. field 113 - shift.
      man &= 0x3FFu;
      bits = sign | ((113u - static_cast<std::uint32_t>(shift)) << 23) |
             (man << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7F800000u | (man << 13);  // inf / NaN (payload kept)
  } else {
    bits = sign | ((exp + 112u) << 23) | (man << 13);
  }
  return f32_from_bits(bits);
}

/// FP32 -> FP16, round-to-nearest-even; overflow -> inf, underflow ->
/// gradual (half subnormals), NaN quieted with top payload bits kept.
inline std::uint16_t f32_to_f16(float f) {
  const std::uint32_t bits = f32_bits(f);
  const std::uint16_t sign =
      static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t aexp = (bits >> 23) & 0xFFu;
  const std::uint32_t frac = bits & 0x7FFFFFu;
  if (aexp == 0xFFu) {
    if (frac == 0) return sign | 0x7C00u;  // inf
    // Quiet bit forced so the payload can never collapse to inf.
    return static_cast<std::uint16_t>(sign | 0x7E00u | (frac >> 13));
  }
  if (aexp == 0) return sign;  // f32 zero/subnormal: below half's range
  const int e = static_cast<int>(aexp) - 127;
  if (e > 15) return sign | 0x7C00u;  // overflow
  const std::uint32_t m = frac | 0x800000u;  // implicit bit
  std::uint32_t base, rem, halfway;
  if (e >= -14) {  // normal half
    base = (static_cast<std::uint32_t>(e + 15) << 10) | (frac >> 13);
    rem = frac & 0x1FFFu;
    halfway = 0x1000u;
  } else {  // subnormal half: units of 2^-24
    const int s = -e - 1;  // >= 14
    if (s >= 25) return sign;  // too small for even the halfway case
    base = m >> s;
    rem = m & ((1u << s) - 1u);
    halfway = 1u << (s - 1);
  }
  if (rem > halfway || (rem == halfway && (base & 1u))) ++base;
  if (base >= 0x7C00u) return sign | 0x7C00u;  // rounding carried to inf
  return static_cast<std::uint16_t>(sign | base);
}

/// Exact BF16 -> FP32 widening: bf16 is the top half of binary32.
inline float bf16_to_f32(std::uint16_t h) {
  return f32_from_bits(static_cast<std::uint32_t>(h) << 16);
}

/// FP32 -> BF16, round-to-nearest-even via the bias trick; NaN quieted.
inline std::uint16_t f32_to_bf16(float f) {
  const std::uint32_t bits = f32_bits(f);
  if ((bits & 0x7F800000u) == 0x7F800000u && (bits & 0x7FFFFFu) != 0) {
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);  // quiet NaN
  }
  const std::uint32_t rounded = bits + 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(rounded >> 16);
}

/// Format-dispatched widening: `bf16` selects the interpretation of `h`.
/// This is the single widening rule VFMULAH32 and every host tier share.
inline float half_to_f32(std::uint16_t h, bool bf16) {
  return bf16 ? bf16_to_f32(h) : f16_to_f32(h);
}

inline std::uint16_t f32_to_half(float f, bool bf16) {
  return bf16 ? f32_to_bf16(f) : f32_to_f16(f);
}

}  // namespace ftm::util
