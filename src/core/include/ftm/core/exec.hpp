// HostExecEngine — deferred functional execution for the GEMM strategies
// (docs/performance.md).
//
// The strategies interleave two kinds of work: *timing* (DMA cost models,
// lane-clock arithmetic — cheap, inherently sequential, must stay on the
// driving thread so cycle results are reproducible) and *functional* work
// (byte copies and micro-kernel math — expensive, and independent across
// simulated cores between barriers, because each core touches only its
// own SM/AM buffers and its own C tiles). This engine collects the
// functional half as per-core in-order op queues and runs the queues on a
// TaskPool at flush points; timing is never deferred, so simulated cycles
// cannot depend on the pool size.
//
// Ordering contract (why results are bit-identical to inline execution):
//  * ops of one simulated core run in program order on one host thread;
//  * ops of different cores only ever touch disjoint memory between two
//    flush points — shared-buffer producers (GSM panel loads) run through
//    serial_copy(), which flushes every queue first and then copies
//    inline, and the K-strategy reduction flushes at each of its existing
//    cluster barriers;
//  * with no pool attached every op executes immediately inline, which is
//    exactly the pre-engine behavior.
//
// Exception safety: fault injection throws on the *timing* path (before
// the copy op is enqueued). The destructor flushes whatever was deferred,
// so after an unwinding GEMM the matrices hold the same prefix of writes
// an eager run would have produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/sim/dma.hpp"
#include "ftm/util/task_pool.hpp"

namespace ftm::core::detail {

class HostExecEngine {
 public:
  /// `pool` may be nullptr (inline mode); `cores` = simulated cores whose
  /// ops may be deferred (the cluster's cores_per_cluster).
  HostExecEngine(TaskPool* pool, int cores);
  ~HostExecEngine();

  HostExecEngine(const HostExecEngine&) = delete;
  HostExecEngine& operator=(const HostExecEngine&) = delete;

  /// Strided DMA copy on `core`'s queue.
  void copy(int core, const sim::DmaRequest& req, const std::uint8_t* src,
            std::uint8_t* dst);
  /// memset-to-zero on `core`'s queue (K-strategy partial-C clear).
  void zero(int core, void* dst, std::size_t bytes);
  /// Micro-kernel math on `core`'s queue. The operand types follow
  /// uk.spec().dtype: float A/B/C for F32, double for F64, and for
  /// F16/BF16 packed halves (A), pair-interleaved words (B), float C.
  void kernel(int core, const kernelgen::MicroKernel& uk, const void* a,
              const void* b, void* c);
  /// Elementwise acc[i] += x[i] on `core`'s queue (reduction merges).
  void add_f32(int core, float* acc, const float* x, std::size_t n);

  /// Injected silent bit-flip on `core`'s queue: XORs `xor_mask` into
  /// FP32 word `word` of the transfer destination. Must be enqueued
  /// right after the copy() it damages (same core queue => runs after
  /// the bytes land, preserving the ECC-escape-on-store semantics under
  /// any pool size).
  void corrupt(int core, const sim::DmaRequest& req, std::uint8_t* dst,
               std::uint64_t word, std::uint32_t xor_mask);

  /// A copy whose destination other cores will read (GSM panel loads):
  /// flushes every queue, then copies inline on the calling thread.
  void serial_copy(const sim::DmaRequest& req, const std::uint8_t* src,
                   std::uint8_t* dst);

  /// Runs all queued ops (cores in parallel, each queue in order) and
  /// returns when every one finished. Call at cluster barrier points
  /// whenever cores exchange data, and before reading C on the host.
  void flush();

  /// Host threads a flush can occupy (1 = inline mode).
  int parallelism() const;

 private:
  struct Op {
    enum class Kind : std::uint8_t { Copy, Zero, Kernel, Add, Corrupt };
    Kind kind;
    sim::DmaRequest req;                       // Copy/Corrupt
    const void* src = nullptr;                 // Copy/kernels A / Add x
    const void* src2 = nullptr;                // kernels B
    void* dst = nullptr;                       // Copy/Zero/kernels C / Add acc
    std::size_t n = 0;                         // Zero bytes / Add elems /
                                               // Corrupt word index
    std::uint32_t mask = 0;                    // Corrupt xor mask
    const kernelgen::MicroKernel* uk = nullptr;
  };

  void push(int core, Op op);
  static void run_op(const Op& op);

  TaskPool* pool_;
  std::vector<std::vector<Op>> queues_;
  bool pending_ = false;
};

}  // namespace ftm::core::detail
