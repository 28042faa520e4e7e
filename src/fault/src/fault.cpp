#include "ftm/fault/fault.hpp"

#include <algorithm>

#include "ftm/trace/trace.hpp"
#include "ftm/util/assert.hpp"

namespace ftm {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::DmaError: return "dma-error";
    case FaultKind::DmaTimeout: return "dma-timeout";
    case FaultKind::SpmEcc: return "spm-ecc";
    case FaultKind::ClusterStall: return "cluster-stall";
    case FaultKind::ClusterDead: return "cluster-dead";
    case FaultKind::SilentCorruption: return "silent-corruption";
    case FaultKind::DeadlineExceeded: return "deadline-exceeded";
    case FaultKind::Cancelled: return "cancelled";
    case FaultKind::Rejected: return "rejected";
    case FaultKind::IntegrityError: return "integrity-error";
    case FaultKind::kCount: break;
  }
  return "?";
}

namespace fault {

ClusterFaults& FaultPlan::cluster(int c) {
  FTM_EXPECTS(c >= 0);
  if (static_cast<std::size_t>(c) >= clusters.size()) {
    clusters.resize(static_cast<std::size_t>(c) + 1);
  }
  return clusters[static_cast<std::size_t>(c)];
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, int clusters) {
  FTM_EXPECTS(clusters >= 1);
  FaultPlan p;
  p.seed = seed;
  Prng rng(seed ^ 0xFA17FA17FA17FA17ULL);
  p.clusters.resize(static_cast<std::size_t>(clusters));
  for (ClusterFaults& cf : p.clusters) {
    cf.dma_error_rate = 0.002 + rng.next_double() * 0.010;
    cf.dma_timeout_rate = 0.002 + rng.next_double() * 0.010;
    cf.spm_ecc_rate = rng.next_double() * 0.004;
    cf.silent_corruption_rate = rng.next_double() * 0.020;
  }
  if (clusters > 1) {
    const int dead = static_cast<int>(rng.next_below(clusters));
    p.clusters[static_cast<std::size_t>(dead)].dead = true;
    int stalled = static_cast<int>(rng.next_below(clusters));
    if (stalled == dead) stalled = (stalled + 1) % clusters;
    p.clusters[static_cast<std::size_t>(stalled)].stall_multiplier =
        2.0 + rng.next_double() * 6.0;
  }
  return p;
}

namespace {
// Clusters the injector can serve beyond what the plan names; real parts
// have 4, so this is pure headroom (avoids racy growth under on_dma).
constexpr std::size_t kMinClusters = 32;
}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  const std::size_t n = std::max(plan_.clusters.size(), kMinClusters);
  clusters_.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    auto s = std::make_unique<ClusterState>();
    // Independent, reproducible stream per cluster regardless of how the
    // runtime interleaves clusters across host threads.
    s->prng = Prng(plan_.seed * 0x9E3779B97F4A7C15ULL + c + 1);
    if (c < plan_.clusters.size()) {
      s->rates = plan_.clusters[c];
      s->dead.store(plan_.clusters[c].dead, std::memory_order_relaxed);
      s->stall = std::max(1.0, plan_.clusters[c].stall_multiplier);
    }
    clusters_.push_back(std::move(s));
  }
}

FaultInjector::ClusterState& FaultInjector::state(int cluster) {
  FTM_EXPECTS(cluster >= 0 &&
              static_cast<std::size_t>(cluster) < clusters_.size());
  return *clusters_[static_cast<std::size_t>(cluster)];
}

const FaultInjector::ClusterState& FaultInjector::state(int cluster) const {
  FTM_EXPECTS(cluster >= 0 &&
              static_cast<std::size_t>(cluster) < clusters_.size());
  return *clusters_[static_cast<std::size_t>(cluster)];
}

void FaultInjector::count(FaultKind k) {
  counts_[static_cast<int>(k)].fetch_add(1, std::memory_order_relaxed);
  FTM_TRACE_COUNTER("fault.injected", 1);
}

void FaultInjector::check_alive(int cluster) {
  if (state(cluster).dead.load(std::memory_order_relaxed)) {
    count(FaultKind::ClusterDead);
    throw FaultError(FaultKind::ClusterDead, cluster, -1,
                     "cluster " + std::to_string(cluster) + " is dead");
  }
}

std::uint64_t FaultInjector::on_dma(int cluster, int core,
                                    std::uint64_t bytes) {
  (void)bytes;
  ClusterState& s = state(cluster);
  if (s.dead.load(std::memory_order_relaxed)) {
    count(FaultKind::ClusterDead);
    throw FaultError(FaultKind::ClusterDead, cluster, core,
                     "cluster " + std::to_string(cluster) + " is dead");
  }
  const ClusterFaults& r = s.rates;
  if (r.dma_error_rate <= 0 && r.spm_ecc_rate <= 0 &&
      r.dma_timeout_rate <= 0) {
    return 0;
  }
  // One roll per transfer, carved into disjoint bands, so the per-cluster
  // stream advances identically whichever fault (or none) fires.
  const double roll = s.prng.next_double();
  if (roll < r.dma_error_rate) {
    count(FaultKind::DmaError);
    throw FaultError(FaultKind::DmaError, cluster, core,
                     "injected DMA transfer error on cluster " +
                         std::to_string(cluster) + " core " +
                         std::to_string(core));
  }
  if (roll < r.dma_error_rate + r.spm_ecc_rate) {
    count(FaultKind::SpmEcc);
    throw FaultError(FaultKind::SpmEcc, cluster, core,
                     "injected uncorrectable scratchpad ECC error on "
                     "cluster " +
                         std::to_string(cluster) + " core " +
                         std::to_string(core));
  }
  if (roll < r.dma_error_rate + r.spm_ecc_rate + r.dma_timeout_rate) {
    count(FaultKind::DmaTimeout);
    return plan_.dma_timeout_penalty_cycles;
  }
  return 0;
}

std::optional<FaultInjector::Corruption> FaultInjector::on_store(
    int cluster, int core, std::uint64_t bytes) {
  (void)core;
  ClusterState& s = state(cluster);
  const double rate = s.rates.silent_corruption_rate;
  // Zero-rate clusters must not touch the PRNG: the fault stream of every
  // pre-existing plan (and the default-off path) stays bit-identical.
  if (rate <= 0 || bytes < 4) return std::nullopt;
  if (s.prng.next_double() >= rate) return std::nullopt;
  Corruption c;
  c.word = s.prng.next_below(bytes / 4);
  // Bit 30 (exponent MSB) plus one random high-mantissa/exponent bit:
  // the resulting delta is >= ~2 in magnitude for any FP32 value
  // (+0.0f XOR bit30 == 2.0f), far above the checksum tolerance.
  c.xor_mask = (1u << 30) | (1u << (20 + s.prng.next_below(10)));
  count(FaultKind::SilentCorruption);
  return c;
}

double FaultInjector::stall_multiplier(int cluster) const {
  return state(cluster).stall;
}

void FaultInjector::note_stalled_run(int cluster) {
  if (stall_multiplier(cluster) > 1.0) count(FaultKind::ClusterStall);
}

bool FaultInjector::dead(int cluster) const {
  return state(cluster).dead.load(std::memory_order_relaxed);
}

void FaultInjector::set_dead(int cluster, bool dead) {
  state(cluster).dead.store(dead, std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultKind k) const {
  return counts_[static_cast<int>(k)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

}  // namespace fault
}  // namespace ftm
