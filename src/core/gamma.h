#pragma once
// The Gamma table of BUBBLE_CONSTRUCT (paper Figure 9).
//
// For every sub-group (l, e, r) and candidate location p two curve families
// exist conceptually:
//   anchor A(l,e,r,p): structures rooted exactly at p (buffer options at p
//                      already applied);
//   child  X(l,e,r,p): the group as seen *from* p when used inside a parent
//                      layer — the pruned union over anchors pc of A(...,pc)
//                      extended by a wire pc -> p.
// Parent layers only ever consume X; the final extraction only needs A of
// the full group (l == n).  So the table stores X for l < n and A for
// l == n, keeping memory at one curve set per (l,e,r,p).
//
// Layer phases: bubble_construct builds layer L with open_layer(L) ...
// close_layer().  While a layer is open only its own rows may be written;
// the rows of earlier layers are what its fork items read concurrently, so a
// write to one asserts (live in Debug and sanitizer builds, free in
// Release), as SolutionArena's fork rule does.

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "core/grouping.h"
#include "curve/curve.h"

namespace merlin {

class GammaTable {
 public:
  GammaTable(std::size_t n, std::size_t k) : n_(n), k_(k), cells_(n * 4 * n * k) {}

  /// The curve of state (l, e, r) at candidate p, for writing: asserts when
  /// a layer other than l is open.
  SolutionCurve& at(std::size_t l, Chi e, std::size_t r, std::size_t p) {
    assert((open_ == 0 || open_ == l) &&
           "GammaTable: write to an earlier layer's row during a layer phase");
    return cells_[index(l, e, r, p)];
  }
  [[nodiscard]] const SolutionCurve& at(std::size_t l, Chi e, std::size_t r,
                                        std::size_t p) const {
    return cells_[index(l, e, r, p)];
  }
  /// The k curves of one (l, e, r) state, contiguous over p.  Layers consume
  /// child states through this view instead of copying k curves per variant.
  [[nodiscard]] std::span<const SolutionCurve> row(std::size_t l, Chi e,
                                                   std::size_t r) const {
    return {&cells_[index(l, e, r, 0)], k_};
  }

  /// Opens layer `l`'s phase (layers do not nest).
  void open_layer(std::size_t l) {
    assert(open_ == 0 && l >= 1 && "GammaTable: layer phases do not nest");
    open_ = l;
  }
  void close_layer() { open_ = 0; }

  [[nodiscard]] std::size_t total_solutions() const {
    std::size_t total = 0;
    for (const SolutionCurve& c : cells_) total += c.size();
    return total;
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t l, Chi e, std::size_t r,
                                  std::size_t p) const {
    assert(l >= 1 && l <= n_ && r < n_ && p < k_);
    return (((l - 1) * 4 + static_cast<std::size_t>(e)) * n_ + r) * k_ + p;
  }

  std::size_t n_, k_;
  std::vector<SolutionCurve> cells_;
  std::size_t open_ = 0;  ///< the open layer, 0 = none
};

}  // namespace merlin
