#include "cache/shard.h"

#include <cstdlib>
#include <cstring>
#include <utility>

namespace merlin {

SubproblemCache::SubproblemCache(CacheConfig cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  shards_ = std::vector<Shard>(cfg_.shards);
  shard_budget_ = cfg_.capacity_nodes / cfg_.shards;
}

bool SubproblemCache::lookup(const CacheKey& key, CacheEntry& out) const {
  if (!enabled()) return false;
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(key);
  if (it == sh.map.end()) return false;
  out = sh.store.get(it->second.id);  // deep copy under the shard lock
  return true;
}

CacheApplyOutcome SubproblemCache::apply(FlushBatch&& batch) {
  CacheApplyOutcome oc;
  oc.staged = batch.staged.size();
  if (!enabled()) return oc;

  const auto refresh = [](Shard& sh, const CacheKey& key) {
    const auto it = sh.map.find(key);
    if (it == sh.map.end()) return false;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second.lru_it);
    return true;
  };

  // Touch refreshes first: a net that *used* an entry outranks the entries
  // it merely produced, so hot shared sub-problems survive eviction.
  for (const CacheKey& key : batch.touched) {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    refresh(sh, key);
  }

  for (CacheEntry& entry : batch.staged) {
    const CacheKey key = entry.key;
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    if (refresh(sh, key)) {  // an earlier net already published this key
      ++oc.duplicates;
      continue;
    }
    if (entry.node_cost() > shard_budget_) {  // can never fit
      ++oc.rejected;
      continue;
    }
    sh.lru.push_front(key);
    Slot slot;
    slot.id = sh.store.put(std::move(entry));
    slot.lru_it = sh.lru.begin();
    sh.map.emplace(key, slot);
    ++oc.inserted;
    while (sh.store.node_cost() > shard_budget_) {
      const CacheKey victim = sh.lru.back();
      sh.lru.pop_back();
      const auto vit = sh.map.find(victim);
      sh.store.erase(vit->second.id);
      sh.map.erase(vit);
      ++oc.evicted;
    }
  }
  return oc;
}

std::size_t SubproblemCache::entry_count() const {
  std::size_t n = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.store.entry_count();
  }
  return n;
}

std::uint64_t SubproblemCache::node_cost() const {
  std::uint64_t n = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.store.node_cost();
  }
  return n;
}

void SubproblemCache::for_each_entry_oldest_first(
    const std::function<void(std::size_t, const CacheEntry&)>& fn) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    // lru front = most recent; walk back-to-front so the oldest entry is
    // reported (and later re-inserted) first.
    for (auto it = sh.lru.rbegin(); it != sh.lru.rend(); ++it)
      fn(i, sh.store.get(sh.map.at(*it).id));
  }
}

void SubproblemCache::clear() {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.map.clear();
    sh.store.clear();
    sh.lru.clear();
  }
}

bool cache_env_off() {
  const char* e = std::getenv("MERLIN_CACHE");
  return e != nullptr &&
         (std::strcmp(e, "off") == 0 || std::strcmp(e, "0") == 0);
}

const CacheEntry* CacheSession::find(const CacheKey& key, bool* shared_hit) {
  if (shared_hit != nullptr) *shared_hit = false;
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    return &entries_[it->second].entry;
  }
  if (shared_ != nullptr) {
    CacheEntry adopted;
    if (shared_->lookup(key, adopted)) {
      // Adopt: later finds of this key in the same run hit locally, and
      // take_flush will report the key touched (LRU refresh), not staged.
      const auto idx = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(LocalEntry{std::move(adopted), false});
      map_.emplace(key, idx);
      touched_.push_back(key);
      ++hits_;
      ++shared_hits_;
      if (shared_hit != nullptr) *shared_hit = true;
      return &entries_[idx].entry;
    }
  }
  ++misses_;
  return nullptr;
}

void CacheSession::insert(const CacheKey& key,
                          std::span<const SolutionCurve> curves,
                          const SolutionArena& arena,
                          std::uint32_t merlin_loops) {
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(LocalEntry{intern_entry(key, curves, arena), true});
  entries_.back().entry.merlin_loops = merlin_loops;
  map_.insert_or_assign(key, idx);
}

void CacheSession::clear() {
  map_.clear();
  entries_.clear();
  touched_.clear();
  hits_ = 0;
  misses_ = 0;
  shared_hits_ = 0;
}

FlushBatch CacheSession::take_flush() {
  FlushBatch batch;
  batch.touched = std::move(touched_);
  if (shared_ != nullptr) {
    batch.staged.reserve(entries_.size());
    for (LocalEntry& le : entries_)
      if (le.publish) batch.staged.push_back(std::move(le.entry));
  }
  clear();
  return batch;
}

}  // namespace merlin
