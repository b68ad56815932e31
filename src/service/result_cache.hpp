#pragma once

// Content-addressed result cache for the experiment service.
//
// One entry per (catalog, scenario) computation, keyed by the hash of:
//
//   catalog hash          — every registered scenario's canonical spec, so
//                           results computed against one catalog are never
//                           replayed against another
//   canonical spec string — the *applied* spec (after trials/smoke
//                           overrides), which pins topology, columns, the
//                           seed range (base_seed .. base_seed+trials-1),
//                           and the round budgets
//   rng mode              — the coin-stream mode that selects sample
//                           paths (after the literal "kernel", the retired
//                           engine choice, kept so older entries still hit)
//
// The stored value is the scenario's JSON result rows, verbatim, so a
// cache hit composes byte-identically into any artifact the runner would
// have produced. Entries are written atomically (temp + rename, with the
// temp file in the cache directory itself so the rename never crosses a
// filesystem boundary) with a human-readable sidecar (<key>.meta) stating
// the key inputs — a hit is verifiable by recomputing the scenario live
// and diffing rows, which is exactly what serve's --verify-cache does.
//
// Size management: an `index` file tracks per-entry byte size and
// last-used time. When a byte budget is set, storing a new entry evicts
// least-recently-used entries until the cache fits (the entry just stored
// is never evicted). Eviction unlinks files — POSIX keeps them readable
// by any process that already opened them, so eviction never races a
// concurrent reader into a torn row set. Orphaned `*.tmp.*` files (a
// writer crashed between temp-write and rename) are swept when the cache
// is opened.
//
// All IO goes through an injectable util::Fs; a cache on a read-only or
// failing filesystem degrades: lookups still serve (best-effort index
// touch), stores throw util::IoError for the caller to catch and continue
// without caching.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/clock.hpp"
#include "util/io.hpp"

namespace dualcast::service {

/// Cache key of one applied scenario under the current catalog and the
/// given execution modes (see file comment for the hashed inputs).
std::uint64_t result_cache_key(const scenario::ScenarioSpec& applied_spec,
                               const scenario::RunOptions& options);

class ResultCache {
 public:
  /// Opens (creating if needed) a cache directory, sweeps orphaned temp
  /// files, and loads + reconciles the size index against the entries
  /// actually on disk. `max_bytes` 0 = unbounded (no eviction). Null
  /// fs/clock resolve to the real filesystem and system clock.
  explicit ResultCache(std::string dir, std::uint64_t max_bytes = 0,
                       util::Fs* fs = nullptr,
                       util::Clock* clock = nullptr);

  const std::string& dir() const { return dir_; }

  /// Returns the stored JSON rows for a key, or nullopt on miss. A hit
  /// refreshes the entry's last-used time (best-effort: an unwritable
  /// index never blocks a hit).
  std::optional<std::vector<std::string>> lookup(std::uint64_t key);

  /// Stores rows under a key (atomic; last writer wins) with a
  /// description of the key's inputs in the sidecar, then evicts
  /// least-recently-used entries while the cache exceeds its budget.
  /// Throws util::IoError when the cache directory is unwritable.
  void store(std::uint64_t key, const std::vector<std::string>& rows,
             const std::string& description);

  /// Evicts least-recently-used entries until total_bytes() is at or
  /// below `target_bytes`, regardless of the configured budget — the
  /// daemon's cache-shed disk-pressure rung hands space back with
  /// shed(0). Persists the index when anything was evicted.
  void shed(std::uint64_t target_bytes);

  /// Tracked size of all entries (rows + sidecars), per the index.
  std::uint64_t total_bytes() const;
  std::size_t entry_count() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::int64_t last_used = 0;  ///< unix seconds (cache clock)
  };

  std::string entry_path(std::uint64_t key) const;
  std::string index_path() const;
  void sweep_orphans();
  void load_index();
  void persist_index();
  void evict(const std::string& keep_hex);

  std::string dir_;
  std::uint64_t max_bytes_;
  util::Fs* fs_;
  util::Clock* clock_;
  std::map<std::string, Entry> entries_;  ///< keyed by 16-hex key
};

}  // namespace dualcast::service
