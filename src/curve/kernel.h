#pragma once
// The fast curve-pruning kernel: bucketed candidate sweeps over a
// struct-of-arrays frontier.
//
// Every DP inner loop in this library funnels through the same shape of
// work: generate candidate (req_time, load, area) tuples from one or more
// source curves, keep the non-inferior subset, and only then materialize
// provenance for the survivors.  A batch op's survivors may still lose to
// a later prune of the cell they were poured into (a group's root options,
// a run's extend-and-prune); inside a fork (curve/fork.h) their nodes are
// staged in a lane, and the lane drops them before the splice, so the
// arena receives provenance only for points a cell keeps.  The original
// implementation materialized *all* candidates, sorted them, and ran a
// quadratic-in-the-worst-case post-hoc prune.  This kernel restructures
// that in the spirit of Li–Shi's O(bn^2) buffer-insertion algorithm
// (PAPERS.md): candidates are generated in per-bucket streams (one bucket
// per buffer type, per merge partner, per wire width), most dominated
// candidates are rejected by an O(1) range comparison against their
// bucket's running frontier before they are ever stored, and the surviving
// per-bucket lists — kept sorted by the canonical curve order — are merged
// into that order and scanned by a single dominance sweep whose survivor
// store is a struct-of-arrays (`FrontierSoA`), so the inner dominance test
// is a branch-light loop over contiguous double lanes (SSE2 when built with
// MERLIN_SIMD=ON on an SSE2 target, scalar otherwise; both paths compare
// with identical IEEE semantics, so results are bit-identical either way).
//
// The sweeps are small — a typical one takes a few dozen candidates in a
// handful of buckets — so the kernel is built for low fixed cost rather
// than asymptotics: adjacent buckets whose ranges do not interleave are
// joined into one run without touching a candidate (the common buffer
// case: a buffer bucket has one constant load), the remaining runs are
// merged pairwise, and the dominance test exploits the sweep order (see
// `FrontierSoA::accept`).
//
// ## Canonical candidate order
//
// The kernel processes candidates in one total order, shared by every
// prune in curve.cpp and by the oracle in tests/test_prune_differential.cpp:
//
//   load ascending, then area ascending, then req_time DESCENDING, then
//   wirelen ascending, then generation sequence number ascending.
//
// The sequence number makes the order total even for metrically identical
// candidates, which pins down which duplicate survives — a property the
// batch engine's bit-identity guarantees rely on.
//
// ## The sweep and its equivalence argument
//
// Scanning candidates in canonical order, a candidate is kept iff no
// already-kept candidate eps-dominates it (`dominates` in solution.h).
// That is exactly what the reference sort-then-scan computes, so any
// shortcut must provably never change the kept set.  The bucket prefilter
// rejects candidate c when an earlier candidate d of the same bucket
// satisfies the ZERO-slack test
//
//   d.load <= c.load  &&  d.area <= c.area  &&
//   d.wirelen <= c.wirelen  &&  d.req_time >= c.req_time
//
// (plain comparisons, no eps).  This is safe because (a) the conjuncts
// force key(d) < key(c), so d precedes c in the canonical scan, and
// (b) zero-slack dominance composes with eps-dominance: if d itself was
// dropped by some kept e (e eps-dominates d), then e eps-dominates c too,
// since each eps bound on d transfers to c through the slack-free
// inequality.  Eps-dominance alone is not transitive — which is exactly why
// the prefilter must not use the eps form.  Quantization
// (PruneConfig::load_quantum / area_quantum) is a filter over the sweep's
// survivors (curve.cpp apply_bins), never an input to it, so this argument
// covers quantized configs unchanged.
//
// Layering: this header sits below curve.h and depends only on
// curve/solution.h.  The bucket *types* (merge pairs, buffered variants,
// wire extensions) live with the curve algebra in curve.cpp; the kernel
// only sees their candidate streams.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "curve/solution.h"

namespace merlin {

/// kernel-entry: CurveCand
/// One candidate flowing through the kernel: the three curve dimensions,
/// the wirelen tie-breaker, and the generation sequence number that makes
/// the canonical order total.  Payload (which sources produced it) is
/// recovered from `seq` by the caller after the sweep.
struct CurveCand {
  double req_time = 0.0;
  double load = 0.0;
  double area = 0.0;
  double wirelen = 0.0;
  std::uint64_t seq = 0;
};

/// kernel-entry: cand_order_less
/// Canonical curve order (see file comment).  A strict total order as long
/// as `seq` values are unique.
[[nodiscard]] inline bool cand_order_less(const CurveCand& a,
                                          const CurveCand& b) {
  if (a.load != b.load) return a.load < b.load;
  if (a.area != b.area) return a.area < b.area;
  if (a.req_time != b.req_time) return a.req_time > b.req_time;
  if (a.wirelen != b.wirelen) return a.wirelen < b.wirelen;
  return a.seq < b.seq;
}

/// kernel-entry: prefilter_dominates
/// The bucket prefilter's zero-slack dominance (see the equivalence
/// argument above): eps-free, wirelen included so key(d) < key(c) is
/// guaranteed.  Deliberately NOT the shared eps `dominates` — the slack-free
/// form is what makes rejection compose transitively.
[[nodiscard]] inline bool prefilter_dominates(const CurveCand& d,
                                              const CurveCand& c) {
  return d.load <= c.load && d.area <= c.area && d.wirelen <= c.wirelen &&
         d.req_time >= c.req_time;
}

/// kernel-entry: kernel_simd_enabled
/// True when the kernel was built with the vector (SSE2) dominance
/// sweep; false for the scalar fallback (MERLIN_SIMD=OFF or a target
/// without the intrinsics).  Both produce bit-identical results; tests use
/// this only for reporting.
[[nodiscard]] bool kernel_simd_enabled();

/// kernel-entry: FrontierSoA
/// Struct-of-arrays survivor store for one dominance sweep.  The three
/// dominance lanes (load / area / req_time) are contiguous doubles so the
/// dominance tests are vectorizable compare-reduces (the sweep's own test
/// reads only area and req_time); wirelen and seq ride along for output
/// materialization only.
class FrontierSoA {
 public:
  void clear() {
    load_.clear();
    area_.clear();
    req_.clear();
    wirelen_.clear();
    seq_.clear();
  }

  [[nodiscard]] std::size_t size() const { return load_.size(); }
  [[nodiscard]] bool empty() const { return load_.empty(); }

  /// Sweep step: rejects `c` if any current survivor eps-dominates it,
  /// otherwise appends it.  Returns true when `c` entered the frontier.
  /// Candidates MUST arrive in canonical order (asserted in Debug and
  /// sanitizer builds): that is what makes the sweep equal the reference
  /// prune, and what lets the test skip the load lane (`dominated_in_order`).
  bool accept(const CurveCand& c) {
    assert(empty() || !cand_order_less(c, (*this)[size() - 1]));
    if (dominated_in_order(c.req_time, c.area)) return false;
    load_.push_back(c.load);
    area_.push_back(c.area);
    req_.push_back(c.req_time);
    wirelen_.push_back(c.wirelen);
    seq_.push_back(c.seq);
    return true;
  }

  /// The dominance test for a query that follows every survivor in
  /// canonical order, as each candidate of a sweep does.  Every survivor then has
  /// load <= the query's load, so `load_[k] <= load + eps` always holds and
  /// only the area and req lanes are compared.  The scan runs newest
  /// survivor first, because the latest point is the likeliest dominator;
  /// the predicate is an existence test, so the order cannot change the
  /// answer.  Vector path when built with MERLIN_SIMD, scalar otherwise.
  [[nodiscard]] bool dominated_in_order(double req_time, double area) const;

  /// Whether any survivor eps-dominates the tuple, for a query in any
  /// order: the three-lane scalar reference the differential suite checks
  /// `dominated_in_order` against on adversarial eps-boundary values.
  [[nodiscard]] bool dominated_scalar(double req_time, double load,
                                      double area) const;

  [[nodiscard]] CurveCand operator[](std::size_t i) const {
    return CurveCand{req_[i], load_[i], area_[i], wirelen_[i], seq_[i]};
  }

 private:
  std::vector<double> load_, area_, req_, wirelen_;
  std::vector<std::uint64_t> seq_;
};

/// kernel-entry: sweep_buckets
/// Merges pre-sorted candidate buckets into the canonical order through one
/// dominance sweep.  `cands` holds every bucket's surviving candidates back
/// to back; `bucket_ends[b]` is one past the last candidate of bucket b, and
/// each bucket range must already be in canonical order (curve.cpp sorts an
/// out-of-order bucket, or cuts it into ordered buckets, before calling).
/// Adjacent buckets that do not interleave (the last of one precedes the
/// first of the next) are joined into one run; the remaining runs are
/// merged bottom-up, pairwise, through two thread-local ping-pong buffers,
/// and the last pair is merged straight into the sweep.  Survivors land in
/// `out` in canonical order.  Returns the number of candidates swept.
std::size_t sweep_buckets(const std::vector<CurveCand>& cands,
                          const std::vector<std::uint32_t>& bucket_ends,
                          FrontierSoA& out);

}  // namespace merlin
