#pragma once
// The P-Tree range DP [LCLH96], implemented once for its two callers:
// ptree_route (ptree/ptree.h, Flows I and II) and BUBBLE_CONSTRUCT's *PTREE
// layers (core/bubble.cpp, Flow III), plus the candidate-set, extension-source
// and sink base-curve helpers both share.  Each caller keeps its own loop
// over ranges, so caller policy (guard accounting, the layer range memo)
// stays outside this file.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "curve/curve.h"
#include "curve/fork.h"
#include "geom/hanan.h"
#include "net/net.h"

namespace merlin {

/// The candidate-location set P of `net` under `opts` and the index of the
/// source in it (candidate_locations always includes the source).
struct CandidateSet {
  std::vector<Point> pts;
  std::size_t source_p = 0;
};
CandidateSet route_candidates(const Net& net, const CandidateOptions& opts);

/// For every candidate p, the candidates a wire extension into p may start
/// from: all others nearest first, ties by index, cut to the `limit` nearest
/// (0 = no cut).
std::vector<std::vector<std::uint32_t>> extension_sources(
    std::span<const Point> pts, std::size_t limit);

/// Appends to `into` sink `s` (provenance index `sink_id`) reached by a
/// direct wire from `at`, one option per wire width (empty `widths` = 1x
/// only; one option at zero length, where widths are indistinguishable).
/// Unpruned.
void push_sink_options(SolutionArena& arena, const Sink& s,
                       std::int32_t sink_id, Point at, const WireModel& wire,
                       std::span<const double> widths, SolutionCurve& into);

/// The P-Tree range DP [LCLH96] over an ordered terminal sequence:
/// cell (i, j, p) holds the non-inferior structures rooted at candidate p
/// connecting terminals i..j.  The caller fills the base cells (i, i, ·)
/// and then solves ranges by increasing length.  One instance may
/// serve many sequences: prepare() clears the table but keeps every curve's
/// capacity, so repeated layer calls run without heap allocation once warm.
/// solve() runs its per-candidate loops as CandidateFork phases
/// (curve/fork.h): on `pool`'s idle workers when one is given, with results
/// identical to the serial loops either way.
class RangeDp {
 public:
  /// The context every range shares: candidates `pts`, per-candidate
  /// extension sources (see extension_sources), the wire model and width
  /// menu, and the prune applied to every cell.  All are referenced, not
  /// copied, except `sources`.
  RangeDp(SolutionArena& arena, std::span<const Point> pts,
          std::vector<std::vector<std::uint32_t>> sources,
          const WireModel& wire, std::span<const double> widths,
          const PruneConfig& prune, ThreadPool* pool = nullptr);

  /// Clears the table for a sequence of `w` terminals.
  void prepare(std::size_t w);

  SolutionCurve& at(std::size_t i, std::size_t j, std::size_t p) {
    return cells_[(i * w_ - i * (i - 1) / 2 + (j - i)) * k_ + p];
  }
  /// The k curves of range (i, j), contiguous over p.
  std::span<SolutionCurve> row(std::size_t i, std::size_t j) {
    return {&at(i, j, 0), k_};
  }

  /// Fills base cells (t, t, ·) with sink `s` wired from every candidate.
  void set_sink(std::size_t t, const Sink& s, std::int32_t sink_id);

  /// Fills range (i, j), i < j, from its solved sub-ranges in two phases.
  /// Phase 1 merges at every candidate.  Phase 2 runs one wire-extension
  /// relaxation across candidates and prunes each merged cell together with
  /// its extensions into a staging curve; the staging curves replace the
  /// cells only after the phase, because every candidate's extensions read
  /// the other candidates' merge results.  A single pass suffices: under
  /// Elmore a direct minimum-length wire dominates any same-endpoints
  /// multi-hop chain.
  void solve(std::size_t i, std::size_t j);

 private:
  // Per-candidate solve() scratch, reused across ranges.  Indexed by p so
  // the items of a forked phase never share a vector.
  struct ItemScratch {
    std::vector<MergeJob> jobs;
    std::vector<const SolutionCurve*> srcs;
    std::vector<Point> src_pts;  ///< fixed: the points of sources_[p]
    SolutionCurve ext;
    SolutionCurve stage;
  };

  SolutionArena& arena_;
  std::span<const Point> pts_;
  std::vector<std::vector<std::uint32_t>> sources_;
  const WireModel& wire_;
  std::span<const double> widths_;
  const PruneConfig& prune_;
  std::size_t w_ = 0, k_ = 0;
  std::vector<SolutionCurve> cells_;
  std::vector<ItemScratch> scratch_;
  CandidateFork fork_;
};

}  // namespace merlin
