#include "core/analysis_cache.h"

#include "core/pipeline.h"

#include <utility>

namespace prore::core {

std::shared_ptr<const GroupCacheEntry> AnalysisCache::Lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.entry;
}

void AnalysisCache::Insert(uint64_t key, GroupCacheEntry entry) {
  auto shared = std::make_shared<const GroupCacheEntry>(std::move(entry));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.insertions;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.entry = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (entries_.size() >= max_entries_) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(shared), lru_.begin()});
}

void AnalysisCache::Invalidate(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  ++stats_.invalidations;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

std::optional<std::vector<uint64_t>> AnalysisCache::LookupGroupKeys(
    uint64_t program) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = group_keys_.find(program);
  if (it == group_keys_.end()) return std::nullopt;
  return it->second;
}

void AnalysisCache::InsertGroupKeys(uint64_t program,
                                    std::vector<uint64_t> keys) {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_keys_.size() >= max_entries_) group_keys_.clear();
  group_keys_[program] = std::move(keys);
}

bool AnalysisCache::CorruptForTest(
    uint64_t key, const std::function<void(GroupCacheEntry*)>& mutate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  GroupCacheEntry copy = *it->second.entry;
  mutate(&copy);
  it->second.entry = std::make_shared<const GroupCacheEntry>(std::move(copy));
  return true;
}

std::vector<uint64_t> AnalysisCache::KeysForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<uint64_t>(lru_.begin(), lru_.end());
}

AnalysisCache::Stats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

size_t AnalysisCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace prore::core
