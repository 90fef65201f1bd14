#pragma once
// Three-dimensional non-inferior solution curves (paper Figure 8, Def. 6)
// and the curve algebra shared by every DP engine in the library.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "buflib/library.h"
#include "curve/arena.h"
#include "curve/solution.h"
#include "obs/sink.h"
#include "timing/wire.h"

namespace merlin {

/// Pruning policy.  Exact Pareto pruning alone already bounds curves to
/// O(nmq) points (Lemma 10); the optional quanta implement the paper's
/// pseudo-polynomial assumption that "capacitive values are polynomially
/// bounded integers or can be mapped to such with sufficient precision"
/// (they bound q), and `max_solutions` is an engineering cap that trades
/// optimality for speed.  Every prune applies them in one order: the exact
/// kernel sweep (curve/kernel.h), then the quantization bins over its
/// survivors, then the cap.
struct PruneConfig {
  double load_quantum = 0.0;  ///< fF bin; 0 disables load quantization
  double area_quantum = 0.0;  ///< area bin; 0 disables area quantization
  std::size_t max_solutions = 0;  ///< hard cap; 0 = unlimited
  /// Reference drive resistance (ps/fF).  When capping, the solution
  /// maximizing req_time - ref_res*load is always kept: that is the point an
  /// upstream driver of this strength would pick, so it must survive even
  /// when the cap is tight.  0 disables the extra keep-point.
  double ref_res = 0.0;
  /// Optional observability sink: every prune through this config records
  /// pushed/pruned/kept counts and the most candidates one prune was
  /// offered (`curve_peak_width`).  Not part of the
  /// pruning policy itself; engines patch it from their own config's sink.
  /// Must stay the last member — PruneConfig is brace-initialized
  /// positionally throughout the codebase.
  ObsSink* obs = nullptr;
};

/// A set of mutually non-inferior (required time, load, area) solutions.
///
/// The container is *lazy*: `push` appends without checking dominance;
/// `prune` restores the non-inferior invariant.  DP inner loops push many
/// candidates and prune once per state, which is both faster and exactly
/// what Figure 9 does (lines 19-20 prune after all merges into a state).
///
/// Provenance handles (`Solution::node`) are only meaningful together with
/// the SolutionArena the curve was built against; a curve outliving that
/// arena keeps valid metrics but dangling handles.
class SolutionCurve {
 public:
  SolutionCurve() = default;

  void push(Solution s) { sols_.push_back(std::move(s)); }

  [[nodiscard]] bool empty() const { return sols_.empty(); }
  [[nodiscard]] std::size_t size() const { return sols_.size(); }
  [[nodiscard]] const Solution& operator[](std::size_t i) const { return sols_[i]; }
  [[nodiscard]] std::span<const Solution> solutions() const { return sols_; }

  [[nodiscard]] auto begin() const { return sols_.begin(); }
  [[nodiscard]] auto end() const { return sols_.end(); }

  void clear() { sols_.clear(); }

  /// Removes every inferior solution (Def. 6) through the kernel sweep,
  /// then keeps the best required time per quantization bin (ties toward
  /// less wire), then enforces the solution cap (keeping the load-spread of
  /// the frontier).  Survivors are left in canonical order (kernel.h).
  void prune(const PruneConfig& cfg = {});

  /// Appends every non-null provenance handle to `out` — the curve's
  /// contribution to a SolutionArena::mark_compact root set.
  void collect_roots(std::vector<SolNodeId>& out) const;

  /// Rewrites every provenance handle through the remap table returned by
  /// SolutionArena::mark_compact.
  void remap_nodes(std::span<const SolNodeId> remap);

  /// Rewrites every lane handle (SolutionArena::open_fork) to the arena id
  /// it received when its lane was spliced with first id `base`.
  void rebase_lane(SolNodeId base);

  /// Drops from fork lane `lane` every staged node this curve does not
  /// reference and renumbers the curve's lane handles to match
  /// (SolutionArena::keep_referenced).
  void trim_lane(SolutionArena& lane) { lane.keep_referenced(sols_); }

  /// The solution with the largest required time, or nullptr if empty.
  [[nodiscard]] const Solution* best_req_time() const;

  /// The largest-required-time solution with area <= max_area (problem
  /// variant I: minimize delay subject to an area constraint).
  [[nodiscard]] const Solution* best_req_time_under_area(double max_area) const;

  /// The smallest-area solution with required time >= min_req (problem
  /// variant II: minimize area subject to a required-time constraint).
  [[nodiscard]] const Solution* min_area_meeting_req(double min_req) const;

 private:
  std::vector<Solution> sols_;
};

// ---------------------------------------------------------------------------
// Curve algebra.  All operations prune *before* allocating provenance nodes:
// candidate tuples are generated into scratch storage, the non-inferior
// subset is selected, and only survivors get SolNodes in `arena` — the same
// arena that produced the input curves' handles.
// ---------------------------------------------------------------------------

/// Joins two curves rooted at the same point `at`: every pair of solutions
/// merges into one with summed load/area/wirelen and min required time.
/// The result is pruned with `cfg` before provenance allocation.
SolutionCurve merge_curves(SolutionArena& arena, const SolutionCurve& left,
                           const SolutionCurve& right, Point at,
                           const PruneConfig& cfg);

/// Extends every solution of `src` (rooted at `from`) by a wire to `to` of
/// width multiplier `wire_width` (see timing/wire.h scaled_width).
/// Zero-length extensions reuse the child provenance node unchanged.
SolutionCurve extend_curve(SolutionArena& arena, const SolutionCurve& src,
                           Point from, Point to, const WireModel& wire,
                           const PruneConfig& cfg, double wire_width = 1.0);

/// Appends, for every solution of `src` and every buffer of `lib`, the
/// solution obtained by driving it with that buffer at `at` into `dst`.
/// Unbuffered originals are *not* copied; callers keep them separately when
/// the structure may legally stay unbuffered.
/// `stride` > 1 tries only every stride-th buffer (plus the strongest one) —
/// an engineering knob that exploits the library's geometric sizing: skipped
/// sizes are bracketed by tried ones, so little quality is lost.
void push_buffered_options(SolutionArena& arena, const SolutionCurve& src,
                           Point at, const BufferLibrary& lib,
                           SolutionCurve& dst, std::size_t stride = 1,
                           ObsSink* obs = nullptr);

// ---------------------------------------------------------------------------
// Batch operations for DP inner loops.  They fold many candidate sources
// into one destination state and prune the *whole* candidate set before any
// provenance node is allocated — the difference between the DP allocating
// per-candidate and per-survivor is an order of magnitude in runtime.
// ---------------------------------------------------------------------------

/// One pairwise-merge input: two curves rooted at the same point.
struct MergeJob {
  const SolutionCurve* left = nullptr;
  const SolutionCurve* right = nullptr;
};

/// Appends to `dst` the non-inferior pairwise merges over all jobs
/// (provenance allocated for survivors only).
void push_merged_options(SolutionArena& arena, std::span<const MergeJob> jobs,
                         Point at, const PruneConfig& cfg, SolutionCurve& dst);

/// Appends to `dst` the non-inferior wire extensions of `srcs[i]` (rooted at
/// `src_pts[i]`) to the common destination `to`, trying every width in
/// `widths` (empty means the default 1x width only — the non-wire-sized
/// problem).  Zero-length extensions reuse the source provenance node.
void push_extended_options(SolutionArena& arena,
                           std::span<const SolutionCurve* const> srcs,
                           std::span<const Point> src_pts, Point to,
                           const WireModel& wire, const PruneConfig& cfg,
                           SolutionCurve& dst,
                           std::span<const double> widths = {});

}  // namespace merlin
