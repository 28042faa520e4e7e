// Persistent, versioned cache of empirically tuned GEMM plans (the
// tentpole of ISSUE 4; format and workflow in docs/tuning.md).
//
// One TuningCache is bound to one MachineConfig. In memory it is a
// shared_mutex-protected map from ShapeClass to TunedEntry, safe to share
// across every engine/worker of a GemmRuntime exactly like the
// KernelCache. On disk it is a single JSON document:
//
//   {
//     "schema": 2,
//     "machine": "a1b2c3d4e5f60718",
//     "entries": [ { "class": "m18-n5-k5-c8", "dtype": 0,
//                    "strategy": "ftimm-M",
//                    "m": 262144, "n": 32, "k": 32, "dma_buffers": 2,
//                    "tuned_cycles": 123, "default_cycles": 456,
//                    "seed": 1,
//                    "blocks": { "kg": 5888, "ng": 96, "ma": 320,
//                                "na": 96, "ka": 864, "ms": 8 } }, ... ]
//   }
//
// Schema 2 adds the per-entry "dtype" (kernelgen::DType as an integer;
// part of the class key). The strategy is one of "ftimm-M", "ftimm-K"
// and "tgemm"; any other name, a retired strategy's included, makes the
// whole file a ParseError.
//
// load() NEVER throws on bad input: a missing file, truncated/corrupt
// JSON, a schema-version mismatch, or a machine-hash mismatch all leave
// the cache unchanged and report a LoadStatus — the engine then simply
// falls back to the paper-default blocks. Serialization is deterministic
// (sorted classes, fixed field order), so two tuner runs with the same
// seed produce byte-identical files.
//
// An entry stores the tuner's winning *seed blocks*, not the final
// adjusted blocks: lookup() re-runs adjust_*_blocks(seed, m, n, k) for
// the concrete shape, which (a) reproduces the tuned plan exactly on the
// tuned shape and (b) stays capacity-safe for every other member of the
// class. A seed the adjuster rejects for some member degrades to nullopt,
// i.e. to the analytic default.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/tune/shape_class.hpp"

namespace ftm::tune {

/// One tuned record: the winning strategy + seed blocks for a shape
/// class, plus the provenance needed for reporting and refresh.
struct TunedEntry {
  ShapeClass cls;
  core::Strategy strategy = core::Strategy::Auto;
  core::MBlocks mblocks;  ///< seed when strategy == ParallelM
  core::KBlocks kblocks;  ///< seed when strategy == ParallelK
  core::TBlocks tblocks;  ///< blocks when strategy == TGemm
  int dma_buffers = 2;    ///< 1 = single-buffered, 2 = ping-pong
  std::size_t m = 0, n = 0, k = 0;      ///< representative tuned shape
  std::uint64_t tuned_cycles = 0;       ///< objective at the winner
  std::uint64_t default_cycles = 0;     ///< objective of the paper plan
  std::uint64_t seed = 0;               ///< tuner seed (provenance)
};

enum class LoadStatus {
  Ok,
  FileMissing,
  ParseError,       ///< truncated or corrupt JSON
  SchemaMismatch,   ///< "schema" != kSchemaVersion
  MachineMismatch,  ///< tuned for a different MachineConfig
};

const char* to_string(LoadStatus s);

class TuningCache : public core::PlanProvider {
 public:
  /// Schema 2 (ISSUE 10): entries carry a "dtype" class field. Schema-1
  /// files load as SchemaMismatch, and a schema-2 file that still holds an
  /// entry of a retired strategy loads as ParseError. Either way the engine
  /// falls back to analytic plans, exactly as for a missing file; re-run
  /// the tuner to regenerate.
  static constexpr int kSchemaVersion = 2;

  explicit TuningCache(const isa::MachineConfig& mc = isa::default_machine());

  /// Merges the entries of a cache file (last write wins per class).
  /// Never throws; on any non-Ok status the in-memory state is unchanged.
  LoadStatus load(const std::string& path);

  /// Writes the whole cache; returns false on I/O failure.
  bool save(const std::string& path) const;

  /// Deterministic JSON document (what save() writes).
  std::string serialize() const;

  /// Parses a JSON document produced by serialize()/save().
  LoadStatus deserialize(const std::string& text);

  void put(const TunedEntry& e);
  std::optional<TunedEntry> find(const ShapeClass& cls) const;
  std::vector<TunedEntry> entries() const;  ///< class-sorted snapshot
  std::size_t size() const;
  void clear();

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::uint64_t machine() const { return machine_hash_; }

  /// PlanProvider: rebind the class's tuned seed blocks to the concrete
  /// shape. nullopt on a class miss or when the seed cannot be made to
  /// fit the shape (caller falls back to the analytic plan).
  std::optional<core::GemmPlan> lookup(
      std::size_t m, std::size_t n, std::size_t k,
      const core::FtimmOptions& opt) const override;

 private:
  isa::MachineConfig mc_;
  std::uint64_t machine_hash_;
  mutable std::shared_mutex mu_;
  std::map<ShapeClass, TunedEntry> entries_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace ftm::tune
