#include "cache/store.h"

#include <unordered_map>

namespace merlin {

CacheEntry intern_entry(const CacheKey& key,
                        std::span<const SolutionCurve> curves,
                        const SolutionArena& arena) {
  CacheEntry e;
  e.key = key;
  e.curves.reserve(curves.size());
  // arena id -> entry-local index, memoized so shared sub-DAGs stay shared.
  std::unordered_map<SolNodeId, SolNodeId> memo;
  std::vector<SolNodeId> stack;
  const auto intern_node = [&](SolNodeId root) -> SolNodeId {
    if (root == kNullSol) return kNullSol;
    // Iterative post-order: a node is emitted only after both children, so
    // e.nodes ends up child-before-parent (the order materialize_entry's
    // single forward pass relies on).
    stack.push_back(root);
    while (!stack.empty()) {
      const SolNodeId id = stack.back();
      if (memo.contains(id)) {
        stack.pop_back();
        continue;
      }
      const SolNode& n = arena[id];
      bool ready = true;
      if (n.a != kNullSol && !memo.contains(n.a)) {
        stack.push_back(n.a);
        ready = false;
      }
      if (n.b != kNullSol && !memo.contains(n.b)) {
        stack.push_back(n.b);
        ready = false;
      }
      if (!ready) continue;
      stack.pop_back();
      SolNode local = n;
      local.a = (n.a == kNullSol) ? kNullSol : memo.at(n.a);
      local.b = (n.b == kNullSol) ? kNullSol : memo.at(n.b);
      memo.emplace(id, static_cast<SolNodeId>(e.nodes.size()));
      e.nodes.push_back(local);
    }
    return memo.at(root);
  };
  for (const SolutionCurve& c : curves) {
    std::vector<Solution>& out = e.curves.emplace_back();
    out.reserve(c.size());
    for (const Solution& s : c) {
      Solution copy = s;
      copy.node = intern_node(s.node);
      out.push_back(copy);
    }
  }
  return e;
}

std::vector<SolutionCurve> materialize_entry(const CacheEntry& entry,
                                             SolutionArena& arena) {
  // Children precede parents in entry.nodes, so one forward pass can clone
  // the whole sub-DAG with links already remapped.
  std::vector<SolNodeId> ids(entry.nodes.size());
  for (std::size_t i = 0; i < entry.nodes.size(); ++i) {
    SolNode n = entry.nodes[i];
    n.a = (n.a == kNullSol) ? kNullSol : ids[n.a];
    n.b = (n.b == kNullSol) ? kNullSol : ids[n.b];
    ids[i] = arena.make_node(n);
  }
  std::vector<SolutionCurve> out(entry.curves.size());
  for (std::size_t p = 0; p < entry.curves.size(); ++p) {
    for (const Solution& s : entry.curves[p]) {
      Solution copy = s;
      copy.node = (s.node == kNullSol) ? kNullSol : ids[s.node];
      out[p].push(std::move(copy));
    }
  }
  return out;
}

}  // namespace merlin
