#pragma once
// The P-Tree range DP [LCLH96], implemented once for its two callers:
// ptree_route (ptree/ptree.h, Flows I and II) and BUBBLE_CONSTRUCT's *PTREE
// layers (core/bubble.cpp, Flow III), plus the candidate-set, extension-source
// and sink base-curve helpers both share.  The DP is a run table solved level
// by level: the caller interns terminal runs, then solves every new run of
// one length at once, so caller policy (guard accounting, which runs a layer
// needs) stays outside this file.

#include <cassert>
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

/// The P-Tree range DP [LCLH96] as a run table.  An entry is a run of
/// terminals, keyed by their ordered identities, with k curves: curve p
/// holds the non-inferior structures rooted at candidate p connecting the
/// run.  A run's curves depend only on its key (its terminals' base curves
/// are fixed once added, and the kernel's tie-break sequence numbers restart
/// per batch op), so one table serves every sequence the caller routes:
/// a run met again — by another sequence, another swap variant, another
/// group — is read, not recomputed, and shares the first computation's
/// provenance sub-DAGs (Lemma 7's sharing, one level below the Gamma groups).
///
/// The caller adds length-1 terminals, interns runs with add_run, and solves
/// the new runs level by level, shortest first: solve() takes every new run
/// of one length and runs two CandidateFork phases (curve/fork.h) over
/// (run, candidate) items — on `pool`'s idle workers when one is given, with
/// results, counters and arena contents identical to a serial loop either way.
///
/// Phase rule (asserted in Debug and sanitizer builds): a run's cells are
/// written only by the one solve() that finishes it, and read only after it
/// is finished; a finished length is read-only from then on.
class RangeDp {
 public:
  using Entry = std::uint32_t;
  static constexpr Entry kMissing = static_cast<Entry>(-1);

  /// The context every run shares: candidates `pts`, per-candidate extension
  /// sources (see extension_sources), the wire model and width menu, and
  /// the prune applied to every cell.  All are referenced, not copied,
  /// except `sources`.
  RangeDp(SolutionArena& arena, std::span<const Point> pts,
          std::vector<std::vector<std::uint32_t>> sources,
          const WireModel& wire, std::span<const double> widths,
          const PruneConfig& prune, ThreadPool* pool = nullptr);
  ~RangeDp();
  RangeDp(const RangeDp&) = delete;
  RangeDp& operator=(const RangeDp&) = delete;

  /// The entry of the run `ids`, or kMissing.
  [[nodiscard]] Entry find(std::span<const std::uint32_t> ids) const;

  /// Adds terminal `id` (absent) with a pruned copy of `base`, one curve per
  /// candidate: a sink's direct-wire options, built once by the caller.
  Entry add_terminal(std::uint32_t id, std::span<const SolutionCurve> base);

  /// Adds terminal `id` (absent) whose curves are `row`, read in place for
  /// the table's lifetime and never written through it (a child group's
  /// Gamma row, final before any run reads it).
  Entry add_view(std::uint32_t id, std::span<const SolutionCurve> row);

  /// Adds the run `ids` (at least two terminals, absent, every sub-run
  /// present) unsolved; solve() finishes it.
  Entry add_run(std::span<const std::uint32_t> ids);

  /// Finishes `runs`: unsolved runs of one length whose sub-runs are all
  /// finished.  Phase 1 merges every split at every candidate.  Phase 2 runs
  /// one wire-extension relaxation across candidates and prunes each merged
  /// cell together with its extensions into a staging curve; the staging
  /// curves replace the cells only after the phase, because every
  /// candidate's extensions read the other candidates' merge results.  A
  /// single pass suffices: under Elmore a direct minimum-length wire
  /// dominates any same-endpoints multi-hop chain.
  void solve(std::span<const Entry> runs);
  /// Most (run, candidate) items one solve() fork holds: a wider level runs
  /// as several forks over consecutive chunks of whole runs.
  static constexpr std::size_t kMaxItems = 1024;

  /// The k curves of finished entry `e`, contiguous over p.
  [[nodiscard]] std::span<const SolutionCurve> curves(Entry e) const;

 private:
  struct Rec {
    std::uint64_t hash;
    std::uint32_t key_off, key_len;
    std::uint32_t split_off;  ///< first (left, right) pair in splits_
    std::uint32_t cell_off;   ///< first owned curve in cells_ (no view)
    const SolutionCurve* view = nullptr;
    bool finished = false;
  };

  static std::uint64_t hash(std::span<const std::uint32_t> ids);
  Entry add(std::span<const std::uint32_t> ids, bool owned);
  void place(Entry e);
  void solve_chunk(std::span<const Entry> runs);
  /// Owned curve p of unfinished run `e`: the one solve() writes.
  SolutionCurve& cell(Entry e, std::size_t p) {
    assert(!recs_[e].finished && recs_[e].view == nullptr &&
           "RangeDp: write to a finished run");
    return cells_[recs_[e].cell_off + p];
  }

  SolutionArena& arena_;
  std::span<const Point> pts_;
  std::vector<std::vector<std::uint32_t>> sources_;
  std::vector<std::vector<Point>> src_pts_;  ///< points of sources_[p]
  const WireModel& wire_;
  std::span<const double> widths_;
  const PruneConfig& prune_;
  std::size_t k_;
  std::vector<Rec> recs_;
  std::vector<std::uint32_t> key_pool_;
  std::vector<Entry> splits_;         ///< per run: len-1 (left, right) pairs
  std::vector<SolutionCurve> cells_;  ///< owned entries' curves, k per entry
  std::vector<std::uint32_t> slots_;  ///< open-addressed index: entry + 1
  std::vector<SolutionCurve> stage_;  ///< phase 2 output, one per item
  CandidateFork fork_;
};

}  // namespace merlin
