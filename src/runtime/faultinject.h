#pragma once
// Deterministic fault injection for the batch engine's resilience layer.
//
// Production robustness claims ("one adversarial net cannot take down the
// batch") are only testable if failures can be *manufactured on demand and
// reproducibly*.  The injector fires faults at named sites in the per-net
// construction path, keyed by a pure function of (seed, net id, site) — so
// whether net 17 fails at `bubble.layer` is identical for every thread
// count, every scheduling, and every rerun with the same seed.  That is
// what lets the chaos CI job run the full differential suite under
// injection and still demand bit-identical 1-vs-N-thread results.
//
// The injector is always compiled (no #ifdef'd test-only build) and
// default-off: a disabled injector costs one null-pointer test per fault
// site.  It can be armed three ways:
//   * programmatically (BatchOptions::inject),
//   * from merlin_cli via --inject KIND:RATE:SEED[:SITE],
//   * process-wide via the MERLIN_INJECT environment variable with the same
//     spec syntax (how CI runs the unmodified test suite under chaos).
//
// Faults fire through NetGuard::fault_point (runtime/guard.h), at most once
// per (site, attempt); the arena-allocation fault is armed on the worker's
// SolutionArena by the batch runner instead (see FaultKind::kArenaAlloc).

#include <cstdint>
#include <stdexcept>
#include <string>

namespace merlin {

/// Named fault sites.  The order is the registry order; names come from
/// fault_site_name() and are documented in docs/ROBUSTNESS.md (the injection
/// site registry table there is checked against this list, both ways, by
/// tests/test_docs.cpp).
enum class FaultSite : std::uint8_t {
  kBatchNet,     ///< start of a per-net construction attempt (batch worker)
  kBubbleLayer,  ///< BUBBLE_CONSTRUCT *PTREE layer call
  kBubbleGroup,  ///< BUBBLE_CONSTRUCT (L, E, R) group state
  kPtreeRange,   ///< PTREE (i, j) range sweep
  kLttreeLevel,  ///< LTTREE C[j] level
  kVanginNode,   ///< van Ginneken per-tree-node DP step
  kArenaAlloc,   ///< SolutionArena allocation (armed via set_alloc_fault)
  kCount,
};

inline constexpr std::size_t kFaultSiteCount =
    static_cast<std::size_t>(FaultSite::kCount);

/// Canonical name of each site (spec syntax / docs anchor).
[[nodiscard]] constexpr const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kBatchNet: return "batch.net";
    case FaultSite::kBubbleLayer: return "bubble.layer";
    case FaultSite::kBubbleGroup: return "bubble.group";
    case FaultSite::kPtreeRange: return "ptree.range";
    case FaultSite::kLttreeLevel: return "lttree.level";
    case FaultSite::kVanginNode: return "vangin.node";
    case FaultSite::kArenaAlloc: return "arena.alloc";
    case FaultSite::kCount: break;
  }
  return "unknown_site";
}

/// What an armed injector does when a (net, site) decision fires.
enum class FaultKind : std::uint8_t {
  kThrow,       ///< throw FaultInjected (an "arbitrary worker exception")
  kArenaAlloc,  ///< make the worker's SolutionArena fail an allocation
  kSlow,        ///< charge synthetic DP steps to the net's guard (and
                ///< optionally sleep, for deadline tests — non-deterministic)
};

/// A fully parsed injection plan.
struct FaultPlan {
  FaultKind kind = FaultKind::kThrow;
  double rate = 0.0;         ///< per-(net, site) firing probability in [0, 1]
  std::uint64_t seed = 0;    ///< decision stream seed
  /// Restrict firing to one site (kCount = every applicable site).
  FaultSite site = FaultSite::kCount;
  /// kSlow: deterministic DP steps charged to the guard per firing site.
  std::uint64_t slow_penalty_steps = 1u << 20;
  /// kSlow: optional real sleep per firing site (ms).  Wall-clock and
  /// therefore non-deterministic; only for exercising --net-deadline-ms.
  double slow_sleep_ms = 0.0;
  /// kArenaAlloc: allocations granted before the injected failure.
  std::uint64_t arena_fail_after = 64;
};

/// The exception an injected kThrow fault raises.
class FaultInjected : public std::runtime_error {
 public:
  FaultInjected(FaultSite site, std::uint32_t net_id);
  [[nodiscard]] FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

class NetGuard;  // runtime/guard.h

/// Deterministic fault injector.  Immutable once constructed; safe to share
/// read-only across batch workers.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// True iff the fault fires for this (net, site) — a pure function of
  /// (plan.seed, net_id, site) and nothing else.
  [[nodiscard]] bool should_fire(std::uint32_t net_id, FaultSite site) const;

  /// Called by NetGuard at a fault site (at most once per site per
  /// attempt).  kThrow faults throw FaultInjected; kSlow faults charge
  /// `slow_penalty_steps` to the guard (and sleep `slow_sleep_ms` if set).
  /// kArenaAlloc is not fired here — the batch runner arms the arena.
  void fire(FaultSite site, std::uint32_t net_id, NetGuard& guard) const;

  /// Parses "KIND:RATE:SEED[:SITE]" (e.g. "throw:0.25:7",
  /// "arena:0.1:3", "slow:0.5:1:bubble.layer").  Throws
  /// std::invalid_argument with a one-line message on malformed specs.
  static FaultPlan parse(const std::string& spec);

  /// Process-wide injector parsed once from the MERLIN_INJECT environment
  /// variable; nullptr when unset.  How CI's chaos job arms the unmodified
  /// test suite.  A malformed variable throws on first use (loudly, rather
  /// than silently running without chaos).
  static const FaultInjector* from_env();

 private:
  FaultPlan plan_;
};

}  // namespace merlin
