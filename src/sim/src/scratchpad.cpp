#include "ftm/sim/scratchpad.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>

// Under AddressSanitizer the bytes outside every allocated region are
// poisoned, so an access past a region (but inside the capacity, where the
// bounds checks cannot see it) is reported.
#if defined(__SANITIZE_ADDRESS__)
#define FTM_SCRATCHPAD_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTM_SCRATCHPAD_ASAN 1
#endif
#endif

#ifdef FTM_SCRATCHPAD_ASAN
#include <sanitizer/asan_interface.h>
#define FTM_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define FTM_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define FTM_POISON(p, n) ((void)(p), (void)(n))
#define FTM_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace ftm::sim {

namespace {

std::uint8_t* map_zeroed(std::size_t len) {
  if (len == 0) return nullptr;
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

void Scratchpad::Unmap::operator()(std::uint8_t* p) const {
  FTM_UNPOISON(p, len);
  ::munmap(p, len);
}

Scratchpad::Scratchpad(std::string name, std::size_t capacity_bytes)
    : name_(std::move(name)),
      bytes_(map_zeroed(capacity_bytes), Unmap{capacity_bytes}) {
  FTM_POISON(bytes_.get(), capacity());
}

Region Scratchpad::alloc(std::size_t bytes) {
  const std::size_t aligned = (top_ + 63) & ~std::size_t{63};
  if (aligned + bytes > capacity()) {
    throw ContractViolation("Scratchpad '" + name_ + "' overflow: need " +
                            std::to_string(bytes) + " bytes at offset " +
                            std::to_string(aligned) + ", capacity " +
                            std::to_string(capacity()));
  }
  top_ = aligned + bytes;
  FTM_UNPOISON(bytes_.get() + aligned, bytes);
  return Region{aligned, bytes};
}

void Scratchpad::reset() {
  top_ = 0;
  FTM_POISON(bytes_.get(), capacity());
}

std::uint8_t* Scratchpad::raw(std::size_t offset, std::size_t len) {
  FTM_EXPECTS(offset + len <= capacity());
  return bytes_.get() + offset;
}

const std::uint8_t* Scratchpad::raw(std::size_t offset, std::size_t len) const {
  FTM_EXPECTS(offset + len <= capacity());
  return bytes_.get() + offset;
}

float* Scratchpad::f32(std::size_t byte_offset, std::size_t count) {
  FTM_EXPECTS(byte_offset % sizeof(float) == 0);
  return reinterpret_cast<float*>(raw(byte_offset, count * sizeof(float)));
}

const float* Scratchpad::f32(std::size_t byte_offset, std::size_t count) const {
  FTM_EXPECTS(byte_offset % sizeof(float) == 0);
  return reinterpret_cast<const float*>(
      raw(byte_offset, count * sizeof(float)));
}

std::uint32_t Scratchpad::load_u32(std::size_t byte_offset) const {
  std::uint32_t v;
  std::memcpy(&v, raw(byte_offset, 4), 4);
  return v;
}

std::uint64_t Scratchpad::load_u64(std::size_t byte_offset) const {
  std::uint64_t v;
  std::memcpy(&v, raw(byte_offset, 8), 8);
  return v;
}

}  // namespace ftm::sim
