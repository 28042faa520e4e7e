#include "ftm/core/exec.hpp"

#include <cstring>
#include <functional>
#include <utility>

#include "ftm/kernelgen/hostsimd.hpp"

namespace ftm::core::detail {

HostExecEngine::HostExecEngine(TaskPool* pool, int cores) : pool_(pool) {
  if (pool_ != nullptr) {
    queues_.resize(static_cast<std::size_t>(cores));
  }
}

HostExecEngine::~HostExecEngine() { flush(); }

int HostExecEngine::parallelism() const {
  return pool_ != nullptr ? static_cast<int>(pool_->parallelism()) : 1;
}

void HostExecEngine::run_op(const Op& op) {
  switch (op.kind) {
    case Op::Kind::Copy:
      sim::dma_copy(op.req, static_cast<const std::uint8_t*>(op.src),
                    static_cast<std::uint8_t*>(op.dst));
      return;
    case Op::Kind::Zero:
      std::memset(op.dst, 0, op.n);
      return;
    case Op::Kind::Kernel:
      op.uk->run_fast(op.src, op.src2, op.dst);
      return;
    case Op::Kind::Add:
      kernelgen::hostsimd::add_f32(static_cast<float*>(op.dst),
                                   static_cast<const float*>(op.src), op.n);
      return;
    case Op::Kind::Corrupt:
      sim::dma_corrupt(op.req, static_cast<std::uint8_t*>(op.dst), op.n,
                       op.mask);
      return;
  }
}

void HostExecEngine::push(int core, Op op) {
  if (pool_ == nullptr) {
    run_op(op);
    return;
  }
  queues_[static_cast<std::size_t>(core)].push_back(std::move(op));
  pending_ = true;
}

void HostExecEngine::copy(int core, const sim::DmaRequest& req,
                          const std::uint8_t* src, std::uint8_t* dst) {
  Op op;
  op.kind = Op::Kind::Copy;
  op.req = req;
  op.src = src;
  op.dst = dst;
  push(core, op);
}

void HostExecEngine::zero(int core, void* dst, std::size_t bytes) {
  Op op;
  op.kind = Op::Kind::Zero;
  op.dst = dst;
  op.n = bytes;
  push(core, op);
}

void HostExecEngine::kernel(int core, const kernelgen::MicroKernel& uk,
                            const void* a, const void* b, void* c) {
  Op op;
  op.kind = Op::Kind::Kernel;
  op.uk = &uk;
  op.src = a;
  op.src2 = b;
  op.dst = c;
  push(core, op);
}

void HostExecEngine::add_f32(int core, float* acc, const float* x,
                             std::size_t n) {
  Op op;
  op.kind = Op::Kind::Add;
  op.dst = acc;
  op.src = x;
  op.n = n;
  push(core, op);
}

void HostExecEngine::corrupt(int core, const sim::DmaRequest& req,
                             std::uint8_t* dst, std::uint64_t word,
                             std::uint32_t xor_mask) {
  Op op;
  op.kind = Op::Kind::Corrupt;
  op.req = req;
  op.dst = dst;
  op.n = static_cast<std::size_t>(word);
  op.mask = xor_mask;
  push(core, op);
}

void HostExecEngine::serial_copy(const sim::DmaRequest& req,
                                 const std::uint8_t* src, std::uint8_t* dst) {
  flush();
  sim::dma_copy(req, src, dst);
}

void HostExecEngine::flush() {
  if (!pending_) return;
  pending_ = false;
  std::vector<std::function<void()>> tasks;
  for (auto& q : queues_) {
    if (q.empty()) continue;
    tasks.emplace_back([queue = std::move(q)] {
      for (const Op& op : queue) run_op(op);
    });
    q.clear();  // moved-from: restore a valid empty state
  }
  pool_->run_batch(std::move(tasks));
}

}  // namespace ftm::core::detail
