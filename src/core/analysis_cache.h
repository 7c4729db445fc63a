#ifndef PRORE_CORE_ANALYSIS_CACHE_H_
#define PRORE_CORE_ANALYSIS_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace prore::core {

/// One cached per-dependency-group transform result (core/pipeline.h).
struct GroupCacheEntry;

/// A bounded, thread-safe, LRU content-hash cache of per-group transform
/// results. Lookups and insertions are cheap (one mutex, hash map + LRU
/// list); entries are shared_ptr-immutable so a hit can be read without
/// holding the lock while a concurrent insert evicts.
///
/// The cache is self-verifying at the consumer: the pipeline re-runs the
/// PL100-PL103 reorder validator over every hit's parsed output before
/// trusting it, and calls Invalidate() on failure — a corrupt entry
/// degrades to a recompute, never to wrong output.
class AnalysisCache {
 public:
  explicit AnalysisCache(size_t max_entries = 1024)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  /// The entry for `key`, or null. A hit refreshes LRU recency.
  std::shared_ptr<const GroupCacheEntry> Lookup(uint64_t key);

  /// Inserts (or replaces) the entry for `key`, evicting the least
  /// recently used entry when full.
  void Insert(uint64_t key, GroupCacheEntry entry);

  /// Drops the entry for `key` (validator-rejected hit). No-op if absent.
  void Invalidate(uint64_t key);

  /// The group keys a run derived for a program, by the program's content
  /// hash. The keys fold in whole-program analyses (core/pipeline.cc), so
  /// a program seen before is keyed without re-running them. Kept apart
  /// from the entries and their stats; dropped wholesale when full.
  std::optional<std::vector<uint64_t>> LookupGroupKeys(uint64_t program);
  void InsertGroupKeys(uint64_t program, std::vector<uint64_t> keys);

  /// Test hook: applies `mutate` to a private copy of the entry for `key`
  /// and stores the mutated copy, simulating corruption. Returns false if
  /// the key is absent.
  bool CorruptForTest(uint64_t key,
                      const std::function<void(GroupCacheEntry*)>& mutate);

  /// Test hook: every resident key, most recently used first.
  std::vector<uint64_t> KeysForTest() const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };
  Stats stats() const;

  size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const GroupCacheEntry> entry;
    std::list<uint64_t>::iterator lru_it;
  };

  mutable std::mutex mu_;
  size_t max_entries_;
  std::unordered_map<uint64_t, Slot> entries_;
  std::list<uint64_t> lru_;  ///< front = most recent
  std::unordered_map<uint64_t, std::vector<uint64_t>> group_keys_;
  Stats stats_;
};

}  // namespace prore::core

#endif  // PRORE_CORE_ANALYSIS_CACHE_H_
