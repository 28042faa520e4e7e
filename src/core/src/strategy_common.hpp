// Internal helpers shared by the three GEMM strategy implementations.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "ftm/core/blocking.hpp"
#include "ftm/core/exec.hpp"
#include "ftm/core/types.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/sim/cluster.hpp"
#include "ftm/trace/trace.hpp"

namespace ftm::core::detail {

/// One side of a DMA transfer: a DDR matrix position or a byte offset in
/// an SM, AM or GSM scratchpad. The kind is explicit because a host base
/// is null in timing-only runs.
struct Endpoint {
  enum class Kind { Host, Pad };
  Kind kind;
  const void* base;       ///< Host: start of the matrix
  sim::Scratchpad* pad;   ///< Pad: the scratchpad
  std::size_t offset;     ///< bytes from base / into pad
  std::size_t stride;     ///< bytes between rows
};

/// Byte `offset` from host matrix `base`, rows `stride` bytes apart.
inline Endpoint host(const void* base, std::size_t offset,
                     std::size_t stride) {
  return {Endpoint::Kind::Host, base, nullptr, offset, stride};
}

/// Element (r, c) of an FP32 host matrix.
inline Endpoint host(ConstMatrixView v, std::size_t r, std::size_t c) {
  return host(v.data(), (r * v.ld() + c) * sizeof(float),
              v.ld() * sizeof(float));
}

/// Byte `offset` of scratchpad `p`, rows `stride` bytes apart.
inline Endpoint pad(sim::Scratchpad& p, std::size_t offset,
                    std::size_t stride) {
  return {Endpoint::Kind::Pad, nullptr, &p, offset, stride};
}

/// Per-core buffers of the three loop nests: the C tile and two B tiles
/// in AM, two A_s slices in SM (each pair ping-ponged).
struct CoreBufs {
  sim::Region ca, ba[2], as[2];
};

/// Per-run bookkeeping: DDR traffic, kernel-call count, the ping-pong
/// ablation (when disabled every DMA is awaited immediately, removing all
/// compute/transfer overlap), and the host execution engine that defers
/// functional work onto opt.host_pool (inline when no pool is attached).
struct RunCtx {
  sim::Cluster& cl;
  kernelgen::KernelCache& cache;
  const FtimmOptions& opt;
  bool fn;  ///< functional (data-moving) mode
  HostExecEngine exec;
  std::uint64_t ddr_bytes = 0;
  std::uint64_t kernel_calls = 0;
  std::chrono::steady_clock::time_point wall_start_;

  /// Cached active session (nullptr = tracing off). Looked up once per
  /// GEMM; an active session outlives the call by contract.
  trace::TraceSession* trace_ = trace::TraceSession::current();

  RunCtx(sim::Cluster& c, kernelgen::KernelCache& k, const FtimmOptions& o)
      : cl(c),
        cache(k),
        opt(o),
        fn(o.functional),
        exec(o.functional ? o.host_pool : nullptr,
             c.machine().cores_per_cluster),
        wall_start_(std::chrono::steady_clock::now()) {
    cl.reset();
    cl.set_functional(o.functional);
    cl.set_active_cores(o.cores);
  }

  /// Cores that actually receive work. Idle cores issue no DMA, so they
  /// must not count toward the DDR bandwidth-sharing factor — this is what
  /// lets TGEMM's single working core (N <= 96) keep the full 42.6 GB/s.
  /// An explicit bandwidth_share (batched mode: other cores are busy with
  /// other GEMMs) overrides the worker count.
  void set_workers(std::size_t parallel_iterations) {
    int w = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(opt.cores),
        std::max<std::size_t>(1, parallel_iterations)));
    if (opt.bandwidth_share > 0) {
      w = std::min(opt.bandwidth_share, cl.machine().cores_per_cluster);
    }
    cl.set_active_cores(w);
  }

  /// The one transfer entry: `rows` rows of `row_bytes` move from `src` to
  /// `dst`. The endpoints fix the route, the DDR byte accounting and, in
  /// functional mode only, the bounds-checked addresses. Timing is charged
  /// eagerly (and fault injection throws) before the byte copy is even
  /// enqueued; the copy itself may run later on a host pool thread, in
  /// order within this core's op queue.
  sim::DmaHandle dma(int core, std::size_t rows, std::size_t row_bytes,
                     const Endpoint& src, const Endpoint& dst) {
    return transfer(core, rows, row_bytes, src, dst, false);
  }

  /// A transfer whose destination is read by *other* cores (the GSM panel
  /// loads): the copy runs inline after all outstanding per-core work is
  /// flushed, so no queued reader of the previous panel can observe the
  /// overwrite and no new reader can start before the bytes are there.
  sim::DmaHandle dma_shared(int core, std::size_t rows, std::size_t row_bytes,
                            const Endpoint& src, const Endpoint& dst) {
    return transfer(core, rows, row_bytes, src, dst, true);
  }

  /// `len` bytes at `offset` of `p` for the host math; null in
  /// timing-only runs, where no bytes move.
  std::uint8_t* buf(sim::Scratchpad& p, std::size_t offset, std::size_t len) {
    return fn ? p.raw(offset, len) : nullptr;
  }

  /// Allocates every core's CoreBufs; sizes are bytes per buffer.
  std::vector<CoreBufs> provision(std::size_t c_tile, std::size_t b_tile,
                                  std::size_t a_slice) {
    std::vector<CoreBufs> pc(opt.cores);
    for (int c = 0; c < opt.cores; ++c) {
      pc[c].ca = cl.core(c).am().alloc(c_tile);
      for (auto& r : pc[c].ba) r = cl.core(c).am().alloc(b_tile);
      for (auto& r : pc[c].as) r = cl.core(c).sm().alloc(a_slice);
    }
    return pc;
  }

  /// The A_s slice loop all three algorithms end in. Streams the `rows` x
  /// `ka` A block at `a` (DDR for Algorithms 4/5, the GSM panel for
  /// Algorithm 1) through `core`'s two SM slice buffers, ping-ponged, and
  /// runs one `na`-wide micro-kernel per slice against B tile `bufs.ba[b]`
  /// and the slice's rows of C tile `bufs.ca`, both in AM at row pitch
  /// `pitch` bytes.
  void slices(int core, const CoreBufs& bufs, const Endpoint& a,
              std::size_t rows, std::size_t ka, std::size_t ms,
              std::size_t na, std::size_t pitch, std::size_t b,
              const ElemLayout& l) {
    sim::Scratchpad& sm = cl.core(core).sm();
    sim::Scratchpad& am = cl.core(core).am();
    const std::size_t row_bytes = ka * l.a_bytes;
    const std::size_t n = (rows + ms - 1) / ms;
    const std::uint8_t* b_tile =
        buf(am, bufs.ba[b].offset, ka / l.k_per_row * pitch);
    auto load = [&](std::size_t s) -> sim::DmaHandle {
      Endpoint src = a;
      src.offset += s * ms * a.stride;
      return dma(core, std::min(ms, rows - s * ms), row_bytes, src,
                 pad(sm, bufs.as[s % 2].offset, row_bytes));
    };
    sim::DmaHandle h = load(0);
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t r0 = s * ms;
      const std::size_t mrows = std::min(ms, rows - r0);
      wait(core, h);
      if (s + 1 < n) h = load(s + 1);
      kernelgen::KernelSpec spec;
      spec.ms = static_cast<int>(mrows);
      spec.ka = static_cast<int>(ka);
      spec.na = static_cast<int>(na);
      spec.dtype = l.dtype;
      kernel(core, cache.get(spec),
             buf(sm, bufs.as[s % 2].offset, mrows * row_bytes),
             b_tile,
             buf(am, bufs.ca.offset + r0 * pitch, mrows * pitch));
    }
  }

  /// Round-robin share of a parallel loop of `n` iterations: `core` owns
  /// iterations core, core + P, ...; returns how many (its w-th is
  /// core + w * P).
  std::size_t share(int core, std::size_t n) const {
    const auto c = static_cast<std::size_t>(core);
    const auto p = static_cast<std::size_t>(opt.cores);
    return n > c ? (n - c + p - 1) / p : 0;
  }

  /// Functional-side barrier: completes all deferred per-core work. Call
  /// wherever the algorithm synchronizes cores before they exchange data
  /// (the K-strategy staging/reduction rounds). No timing effect.
  void sync() { exec.flush(); }

  /// Synchronization point of the ping-pong scheme: blocks `core` until
  /// transfer `h` completes, recording the stall (if any) as a traced
  /// span — this is exactly the "overlap gap" the trace layer exists to
  /// expose.
  void wait(int core, sim::DmaHandle h) {
    auto& tl = cl.timeline(core);
    if (trace_ != nullptr) {
      const std::uint64_t done = tl.done_time(h);
      if (done > tl.now()) {
        trace::Event e;
        e.name = "wait dma";
        e.cat = "stall";
        e.ts = cl.trace_epoch() + tl.now();
        e.dur = done - tl.now();
        e.cluster = cl.id();
        e.core = core;
        e.track = trace::TrackKind::Compute;
        trace_->record(e);
        trace_->count("stall.dma_wait_cycles", done - tl.now());
      }
    }
    tl.dma_wait(h);
  }

  /// Charge a micro-kernel execution on `core`'s timeline; defers the
  /// math onto `core`'s op queue in functional mode. The charged cycles
  /// are the calibrated cost either way (run_fast returns cost_only()),
  /// so deferring the math cannot move a single simulated cycle. Operand
  /// types follow uk.spec().dtype (HostExecEngine::kernel).
  void kernel(int core, const kernelgen::MicroKernel& uk, const void* a,
              const void* b, void* c) {
    ++kernel_calls;
    const std::uint64_t cycles = uk.cost_only();
    if (fn) exec.kernel(core, uk, a, b, c);
    if (trace_ != nullptr) {
      const sim::ExecResult& calib = uk.calibration();
      trace::Event e;
      e.name = "kernel";
      e.cat = "compute";
      e.ts = cl.trace_epoch() + cl.timeline(core).now();
      e.dur = cycles;
      e.cluster = cl.id();
      e.core = core;
      e.track = trace::TrackKind::Compute;
      e.arg("fmac_busy", calib.vfmac_ops);
      e.arg("stall_cycles", calib.stall_cycles);
      e.arg("flops", calib.flops);
      trace_->record(e);
      trace_->count("kernel.calls");
      trace_->count("kernel.cycles", cycles);
      trace_->count("kernel.stall_cycles", calib.stall_cycles);
    }
    cl.timeline(core).compute(cycles);
  }

  /// Phase spans (ping-pong C-tile rounds, the K-strategy reduction...):
  /// `t0 = phase_begin(core)` before, `phase_end(core, "name", t0)` after.
  /// Both cost one null check while no session is active.
  std::uint64_t phase_begin(int core) const {
    if (trace_ != nullptr) return cl.trace_epoch() + cl.timeline(core).now();
    return 0;
  }

  void phase_end(int core, const char* name, std::uint64_t t0) {
    if (trace_ != nullptr) {
      trace::Event e;
      e.name = name;
      e.cat = "phase";
      e.ts = t0;
      const std::uint64_t t1 = cl.trace_epoch() + cl.timeline(core).now();
      e.dur = t1 > t0 ? t1 - t0 : 0;
      e.cluster = cl.id();
      e.core = core;
      e.track = trace::TrackKind::Compute;
      trace_->record(e);
    }
  }

  /// Closes the run; rates come from derive_rates at the peak of `dtype`.
  GemmResult finish(std::size_t m, std::size_t n, std::size_t k, Strategy s,
                    kernelgen::DType dtype = kernelgen::DType::F32) {
    exec.flush();  // C must be fully written before the caller reads it
    cl.barrier();
    GemmResult r;
    r.cycles = cl.max_time();
    r.strategy = s;
    r.cores = opt.cores;
    r.dtype = dtype;
    derive_rates(r, 2.0 * m * n * k, opt.cores, cl.machine());
    r.ddr_bytes = ddr_bytes;
    r.kernel_calls = kernel_calls;
    r.host_wall_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - wall_start_)
            .count();
    if (trace_ != nullptr) {
      trace::Event e;
      e.name = "gemm";
      e.cat = to_string(s);
      e.ts = cl.trace_epoch();
      e.dur = r.cycles;
      e.cluster = cl.id();
      e.track = trace::TrackKind::Cluster;
      e.arg("m", m);
      e.arg("n", n);
      e.arg("k", k);
      trace_->record(e);
      trace_->count("gemm.calls");
      trace_->count("gemm.cycles", r.cycles);
      // Host-engine gauges, summed per GEMM (the registry is cumulative):
      // tier id of the SIMD dispatch and host threads a flush may use.
      trace_->count("host.simd_tier",
                    static_cast<std::uint64_t>(
                        kernelgen::hostsimd::active_tier()));
      trace_->count("host.pool_threads",
                    static_cast<std::uint64_t>(exec.parallelism()));
    }
    return r;
  }

 private:
  sim::DmaHandle transfer(int core, std::size_t rows, std::size_t row_bytes,
                          const Endpoint& src, const Endpoint& dst,
                          bool shared) {
    sim::DmaRequest req;
    req.route = route(src, dst);
    req.rows = rows;
    req.row_bytes = row_bytes;
    req.src_stride = src.stride;
    req.dst_stride = dst.stride;
    if (src.kind == Endpoint::Kind::Host || dst.kind == Endpoint::Kind::Host) {
      ddr_bytes += req.total_bytes();
    }
    const sim::DmaHandle h = cl.dma_issue(core, req);
    if (fn) move_bytes(core, req, src, dst, shared);
    if (!opt.pingpong) cl.timeline(core).dma_wait(h);
    return h;
  }

  /// Host to pad is a DDR load, pad to host a DDR store; between pads the
  /// GSM side decides the direction. Pairings without a route (host to
  /// host, core pad to core pad) are rejected in move_bytes.
  sim::DmaRoute route(const Endpoint& src, const Endpoint& dst) {
    using K = Endpoint::Kind;
    if (src.kind == K::Host) return sim::DmaRoute::DdrToSpm;
    if (dst.kind == K::Host) return sim::DmaRoute::SpmToDdr;
    return src.pad == &cl.gsm() ? sim::DmaRoute::GsmToSpm
                                : sim::DmaRoute::SpmToGsm;
  }

  /// The functional half of a transfer. Kept out of line so the timing
  /// half inlines into the loop nests: timing-only sweeps run nothing but
  /// that half, once per transfer.
  [[gnu::noinline]] void move_bytes(int core, const sim::DmaRequest& req,
                                    const Endpoint& src, const Endpoint& dst,
                                    bool shared) {
    using K = Endpoint::Kind;
    FTM_EXPECTS(src.kind == K::Pad || dst.kind == K::Pad);
    FTM_EXPECTS(src.kind == K::Host || dst.kind == K::Host ||
                (src.pad == &cl.gsm()) != (dst.pad == &cl.gsm()));
    const std::uint8_t* from = address(src, req.rows, req.row_bytes);
    std::uint8_t* to = address(dst, req.rows, req.row_bytes);
    if (shared) {
      exec.serial_copy(req, from, to);
    } else {
      exec.copy(core, req, from, to);
    }
    // Silent-corruption hook (C stores only): enqueued on the same core
    // queue right after the copy, so the flip lands on what DDR holds
    // after the transfer — an ECC escape on the store path.
    if (const auto sc = cl.store_corruption(core, req)) {
      exec.corrupt(core, req, to, sc->word, sc->xor_mask);
    }
  }

  /// First byte of `e` in functional mode. A pad endpoint is bounds-checked
  /// over its footprint, (rows - 1) * stride + row_bytes.
  std::uint8_t* address(const Endpoint& e, std::size_t rows,
                        std::size_t row_bytes) {
    if (e.kind == Endpoint::Kind::Host) {
      FTM_EXPECTS(e.base != nullptr);
      // Host destinations are only ever built from C, which is writable.
      return const_cast<std::uint8_t*>(
                 static_cast<const std::uint8_t*>(e.base)) +
             e.offset;
    }
    return e.pad->raw(e.offset,
                      rows == 0 ? 0 : (rows - 1) * e.stride + row_bytes);
  }
};

}  // namespace ftm::core::detail
