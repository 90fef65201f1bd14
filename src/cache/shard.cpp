#include "cache/shard.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace merlin {

bool SubproblemCache::lookup(const CacheKey& key, CacheEntry& out) const {
  if (!enabled()) return false;
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  out = *it->second;  // deep copy: the session owns what it adopts
  return true;
}

CacheApplyOutcome SubproblemCache::apply(FlushBatch&& batch) {
  assert(!read_phase_ && "SubproblemCache: apply during a read phase");
  CacheApplyOutcome oc;
  oc.staged = batch.staged.size();
  if (!enabled()) return oc;

  const auto refresh = [this](const CacheKey& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  };

  // Touch refreshes first: a net that *used* an entry outranks the entries
  // it merely produced, so hot shared sub-problems survive eviction.
  for (const CacheKey& key : batch.touched) refresh(key);

  for (CacheEntry& entry : batch.staged) {
    if (refresh(entry.key)) {  // an earlier net already published this key
      ++oc.duplicates;
      continue;
    }
    if (entry.node_cost() > cfg_.capacity_nodes) {  // can never fit
      ++oc.rejected;
      continue;
    }
    node_cost_ += entry.node_cost();
    lru_.push_front(std::move(entry));
    map_.emplace(lru_.front().key, lru_.begin());
    ++oc.inserted;
    while (node_cost_ > cfg_.capacity_nodes) {  // never the entry just added
      node_cost_ -= lru_.back().node_cost();
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++oc.evicted;
    }
  }
  return oc;
}

void SubproblemCache::for_each_entry_oldest_first(
    const std::function<void(std::size_t, const CacheEntry&)>& fn) const {
  assert(!read_phase_ && "SubproblemCache: walk during a read phase");
  // lru_ front = most recent; walk back-to-front so the oldest entry is
  // reported (and later re-inserted) first.
  std::size_t ordinal = 0;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) fn(ordinal++, *it);
}

void SubproblemCache::clear() {
  assert(!read_phase_ && "SubproblemCache: clear during a read phase");
  map_.clear();
  lru_.clear();
  node_cost_ = 0;
}

void SubproblemCache::open_read_phase() noexcept {
  assert(!read_phase_ && "SubproblemCache: read phases do not nest");
  read_phase_ = true;
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
