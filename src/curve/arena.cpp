#include "curve/arena.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace merlin {

const SolNode& SolutionArena::at(SolNodeId id) const {
  if (id >= size_)
    throw std::invalid_argument(
        id == kNullSol
            ? "SolutionArena: null provenance handle"
            : "SolutionArena: handle " + std::to_string(id) +
                  " out of range (arena holds " + std::to_string(size_) +
                  " nodes; was it produced by a different arena?)");
  return (*this)[id];
}

SolNodeId SolutionArena::stage(const SolNode& n) {
  if (is_lane_handle(n.a) || is_lane_handle(n.b))
    throw std::logic_error(
        "SolutionArena: a lane node may only reference spliced nodes");
  if (staged_.size() >= node_limit_ - 1)  // the tagged id must stay non-null
    throw std::length_error("SolutionArena: lane exceeds the handle space");
  staged_.push_back(n);
  return static_cast<SolNodeId>(staged_.size() - 1) | kLaneTag;
}

void SolutionArena::keep_referenced(std::span<Solution> sols) {
  assert(lane_ && "SolutionArena: keep_referenced on a non-lane arena");
  const std::size_t m = staged_.size();
  // Staging index -> new index; kNullSol marks a node nothing references.
  thread_local std::vector<SolNodeId> to;
  to.assign(m, kNullSol);
  for (const Solution& s : sols) {
    if (!is_lane_handle(s.node)) continue;
    assert((s.node & ~kLaneTag) < m &&
           "SolutionArena: lane handle past the lane's staged nodes");
    to[s.node & ~kLaneTag] = 0;
  }
  SolNodeId next = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (to[i] == kNullSol) continue;
    to[i] = next;
    staged_[next++] = staged_[i];
  }
  staged_.resize(next);
  for (Solution& s : sols)
    if (is_lane_handle(s.node)) s.node = to[s.node & ~kLaneTag] | kLaneTag;
}

SolNodeId SolutionArena::append(const SolNode& n) {
  if (size_ >= node_limit_)
    throw std::length_error("SolutionArena: node count exceeds the handle space");
  if (fault_armed_) {
    if (fault_grants_ == 0) {
      fault_fired_ = true;
      throw std::length_error("SolutionArena: injected allocation failure");
    }
    --fault_grants_;
  }
  const std::size_t slab = size_ >> kSlabShift;
  if (slab == slabs_.size())
    slabs_.push_back(std::make_unique<SolNode[]>(kSlabSize));
  const SolNodeId id = static_cast<SolNodeId>(size_++);
  slot(id) = n;
  ++stats_.nodes_allocated;
  if (size_ > stats_.peak_nodes) stats_.peak_nodes = size_;
  return id;
}

std::span<SolutionArena> SolutionArena::open_fork(std::size_t n) {
  assert(!lane_ && !fork_open_ && "SolutionArena: forks do not nest");
  if (lanes_.size() < n) {
    lanes_.resize(n);
    for (SolutionArena& lane : lanes_) lane.lane_ = true;
  }
  fork_open_ = true;
  return {lanes_.data(), n};
}

SolNodeId SolutionArena::splice(SolutionArena& lane) {
  assert(fork_open_ && lane.lane_ && "SolutionArena: splice outside a fork");
  const SolNodeId base = static_cast<SolNodeId>(size_);
  for (const SolNode& n : lane.staged_) append(n);
  lane.staged_.clear();
  return base;
}

void SolutionArena::close_fork() noexcept {
  // Lanes keep their staging capacity for the next fork, except a buffer
  // past kLaneRetainNodes: a wide phase's heavy items give theirs back
  // rather than hold them while the arena grows.
  for (SolutionArena& lane : lanes_) {
    lane.staged_.clear();
    if (lane.staged_.capacity() > kLaneRetainNodes)
      std::vector<SolNode>().swap(lane.staged_);
  }
  fork_open_ = false;
}

void SolutionArena::reset() {
  size_ = 0;
  ++stats_.resets;
}

std::vector<SolNodeId> SolutionArena::mark_compact(
    std::span<const SolNodeId> roots) {
  assert(!fork_open_ && "SolutionArena: mark_compact during a fork");
  // Mark: iterative DFS over the live sub-DAG.
  std::vector<char> live(size_, 0);
  std::vector<SolNodeId> stack;
  for (SolNodeId r : roots) {
    if (r == kNullSol) continue;
    if (r >= size_)
      throw std::invalid_argument("SolutionArena::mark_compact: root " +
                                  std::to_string(r) + " out of range");
    if (!live[r]) {
      live[r] = 1;
      stack.push_back(r);
    }
    while (!stack.empty()) {
      const SolNode& n = (*this)[stack.back()];
      stack.pop_back();
      for (SolNodeId c : {n.a, n.b}) {
        if (c != kNullSol && !live[c]) {
          live[c] = 1;
          stack.push_back(c);
        }
      }
    }
  }

  // Sweep: slide survivors down in ascending old-id order.  A node's
  // children always carry smaller ids than the node itself (they must exist
  // before make_* links them), so remap[child] is final by the time the
  // parent is moved — one forward pass rewrites the child links in place.
  std::vector<SolNodeId> remap(size_, kNullSol);
  std::size_t next = 0;
  for (std::size_t old = 0; old < size_; ++old) {
    if (!live[old]) continue;
    const SolNodeId to = static_cast<SolNodeId>(next++);
    remap[old] = to;
    SolNode n = (*this)[static_cast<SolNodeId>(old)];
    if (n.a != kNullSol) n.a = remap[n.a];
    if (n.b != kNullSol) n.b = remap[n.b];
    slot(to) = n;
  }
  size_ = next;
  ++stats_.compactions;
  return remap;
}

SolutionArena::Stats SolutionArena::stats() const {
  Stats s = stats_;
  s.live_nodes = size_;
  s.reserved_bytes = slabs_.size() * kSlabSize * sizeof(SolNode);
  s.peak_bytes = s.peak_nodes * sizeof(SolNode);
  return s;
}

}  // namespace merlin
