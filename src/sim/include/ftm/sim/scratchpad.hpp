// Software-managed on-chip memories (SM, AM, GSM) of the simulated GPDSP
// cluster. Capacity is enforced: allocating past the published size is a
// contract violation, which is how the library proves its block-size
// choices actually fit the hardware (the paper's Algorithm 4/5 operands
// are tight against AM's 768 KB).
//
// Backing memory is an anonymous mapping: it reads zero and the kernel
// commits each page on first touch, so a timing-only cluster, which moves
// no bytes, costs no resident memory for its 12.5 MiB of scratchpads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "ftm/util/assert.hpp"

namespace ftm::sim {

/// A named region inside a scratchpad, returned by Scratchpad::alloc.
struct Region {
  std::size_t offset = 0;  ///< Byte offset inside the scratchpad.
  std::size_t bytes = 0;
};

/// Byte-addressable on-chip memory with a bump allocator. All kernel and
/// DMA accesses are bounds-checked. Move-only: it owns its mapping.
class Scratchpad {
 public:
  Scratchpad(std::string name, std::size_t capacity_bytes);

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return bytes_.get_deleter().len; }
  std::size_t allocated() const { return top_; }

  /// Allocates `bytes` (64-byte aligned). Throws ContractViolation when the
  /// scratchpad would overflow — the simulator's capacity enforcement.
  Region alloc(std::size_t bytes);
  /// Releases every allocation (scratchpads are reprovisioned per GEMM
  /// call). The bytes keep their values.
  void reset();

  std::uint8_t* raw(std::size_t offset, std::size_t len);
  const std::uint8_t* raw(std::size_t offset, std::size_t len) const;

  float* f32(std::size_t byte_offset, std::size_t count);
  const float* f32(std::size_t byte_offset, std::size_t count) const;

  /// 32-bit / 64-bit scalar accessors used by the VLIW core model.
  std::uint32_t load_u32(std::size_t byte_offset) const;
  std::uint64_t load_u64(std::size_t byte_offset) const;

 private:
  /// Unmaps `len` bytes; a capacity-0 scratchpad maps nothing.
  struct Unmap {
    std::size_t len = 0;
    void operator()(std::uint8_t* p) const;
  };

  std::string name_;
  std::unique_ptr<std::uint8_t, Unmap> bytes_;
  std::size_t top_ = 0;
};

}  // namespace ftm::sim
