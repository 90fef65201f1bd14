#pragma once
// Cooperative per-net execution guard.
//
// MERLIN's inner DP explores a neighborhood of size Fib(n+2) (Theorem 1), so
// a single adversarial net can blow past any time or memory expectation.  The
// NetGuard bounds one net's construction attempt with three independent caps:
//
//   * a DP-step budget — deterministic: "steps" are counted at DP layer
//     boundaries (a PTREE (i,j) range, a BUBBLE layer call, an LTTREE level,
//     a van Ginneken node), so the same net with the same config trips at
//     exactly the same point regardless of thread count, scheduling, or
//     machine load.  This is the cap that drives the batch engine's
//     degradation ladder on the deterministic path.
//   * an arena-node soft cap — deterministic for the same reason (the arena
//     high-water mark per net is a pure function of the net and config).
//   * an optional wall-clock deadline — explicitly NON-deterministic; runs
//     that enable it forfeit the 1-vs-N-thread bit-identity contract (see
//     docs/ROBUSTNESS.md).  Off by default.
//
// Checks are cooperative and cheap: engines call guard_step()/guard_arena()
// at loop boundaries, and guard_phase() between the fork phases of a
// planned layer (null guard = no-op), and a trip raises a typed
// GuardError that the batch worker catches and converts into a NetStatus.
// The guard is also the engine-side carrier for fault injection: the same
// checkpoints double as named fault sites (runtime/faultinject.h), so the
// chaos harness exercises exactly the paths real failures would take.

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "runtime/faultinject.h"

namespace merlin {

class SolutionArena;  // curve/arena.h

/// Terminal classification of one net's batch outcome.  Lives here (not in
/// flow/batch.h) so the obs layer can stamp trace rows with it without
/// depending on the flow layer.
enum class NetStatus : std::uint8_t {
  kOk,          ///< configured flow succeeded on the first attempt
  kDegraded,    ///< a ladder fallback succeeded after the configured flow
                ///< failed (result is valid but not the configured flow's)
  kFailed,      ///< non-budget failure and policy forbade/exhausted recovery
  kOverBudget,  ///< step or arena budget tripped and policy was `skip`
  kDeadline,    ///< wall-clock deadline tripped and policy was `skip`
};

[[nodiscard]] constexpr const char* net_status_name(NetStatus s) {
  switch (s) {
    case NetStatus::kOk: return "ok";
    case NetStatus::kDegraded: return "degraded";
    case NetStatus::kFailed: return "failed";
    case NetStatus::kOverBudget: return "over_budget";
    case NetStatus::kDeadline: return "deadline";
  }
  return "unknown";
}

/// Per-net guard limits.  Zero disables the corresponding cap.
struct GuardConfig {
  /// DP steps granted per construction attempt (deterministic cap).
  std::uint64_t step_budget = 0;
  /// Arena live-node soft cap per attempt (deterministic cap).
  std::uint32_t arena_node_cap = 0;
  /// Wall-clock deadline per attempt, in milliseconds.  NON-DETERMINISTIC:
  /// enabling it forfeits the 1-vs-N-thread identity contract.
  double deadline_ms = 0.0;

  [[nodiscard]] bool enabled() const {
    return step_budget != 0 || arena_node_cap != 0 || deadline_ms > 0.0;
  }
  friend bool operator==(const GuardConfig&, const GuardConfig&) = default;
};

/// Base of the typed guard-trip errors the batch worker catches.
class GuardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The deterministic step or arena budget tripped.
class BudgetExceeded : public GuardError {
 public:
  BudgetExceeded(std::uint32_t net_id, std::uint64_t steps,
                 std::uint64_t budget, bool arena)
      : GuardError("net " + std::to_string(net_id) +
                   (arena ? ": arena node cap exceeded ("
                          : ": step budget exceeded (") +
                   std::to_string(steps) + "/" + std::to_string(budget) + ")"),
        arena_(arena) {}
  /// True when the arena cap (not the step budget) tripped.
  [[nodiscard]] bool arena_cap() const { return arena_; }

 private:
  bool arena_;
};

/// The (non-deterministic) wall-clock deadline tripped.
class DeadlineExceeded : public GuardError {
 public:
  explicit DeadlineExceeded(std::uint32_t net_id, double deadline_ms)
      : GuardError("net " + std::to_string(net_id) + ": deadline exceeded (" +
                   std::to_string(deadline_ms) + " ms)") {}
};

/// One construction attempt's guard.  Created fresh per attempt by the batch
/// worker (budgets reset across ladder rungs); engines receive it as a
/// nullable pointer through their configs.
class NetGuard {
 public:
  NetGuard(std::uint32_t net_id, GuardConfig cfg,
           const FaultInjector* inject = nullptr)
      : net_id_(net_id), cfg_(cfg), inject_(inject) {
    if (cfg_.deadline_ms > 0.0)
      deadline_at_ =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(cfg_.deadline_ms));
  }

  [[nodiscard]] std::uint32_t net_id() const { return net_id_; }
  [[nodiscard]] const GuardConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

  /// Charges `n` DP steps and trips BudgetExceeded past the budget.  The
  /// deadline (when armed) is polled here too, but only every
  /// kDeadlinePollMask+1 calls — steady_clock reads are ~20ns and would
  /// otherwise dominate tight DP loops.
  void step(std::uint64_t n = 1) {
    steps_ += n;
    if (cfg_.step_budget != 0 && steps_ > cfg_.step_budget)
      throw BudgetExceeded(net_id_, steps_, cfg_.step_budget, false);
    if (deadline_at_ && (++deadline_poll_ & kDeadlinePollMask) == 0 &&
        std::chrono::steady_clock::now() > *deadline_at_)
      throw DeadlineExceeded(net_id_, cfg_.deadline_ms);
  }

  /// Trips BudgetExceeded when the attempt's arena live-node count passes
  /// the soft cap.  Engines call it alongside step() where they allocate.
  void arena_check(std::uint32_t live_nodes) {
    if (cfg_.arena_node_cap != 0 && live_nodes > cfg_.arena_node_cap)
      throw BudgetExceeded(net_id_, live_nodes, cfg_.arena_node_cap, true);
  }

  /// A phase boundary of a forked engine (BUBBLE_CONSTRUCT's layer phases):
  /// the arena cap as arena_check, and the deadline polled at once — a
  /// phase charges no steps, and its work follows the steps its plan
  /// charged.
  void phase_check(std::uint32_t live_nodes) {
    arena_check(live_nodes);
    if (deadline_at_ && std::chrono::steady_clock::now() > *deadline_at_)
      throw DeadlineExceeded(net_id_, cfg_.deadline_ms);
  }

  /// Synthetic step charge used by `slow` fault injection: identical
  /// bookkeeping to step(), so an injected slowdown trips the same
  /// BudgetExceeded a genuinely pathological net would.
  void charge(std::uint64_t n) { step(n); }

  /// Named fault site.  With an armed injector whose decision fires for
  /// (net, site), raises/charges the injected fault — at most once per site
  /// per attempt, so one decision cannot fire on every loop iteration.
  void fault_point(FaultSite site) {
    if (!inject_) return;
    const auto bit = std::uint32_t{1} << static_cast<std::uint32_t>(site);
    if (fired_sites_ & bit) return;
    if (!inject_->should_fire(net_id_, site)) {
      fired_sites_ |= bit;  // decision is per-attempt; don't re-hash
      return;
    }
    fired_sites_ |= bit;
    ++injected_fired_;
    inject_->fire(site, net_id_, *this);
  }

  [[nodiscard]] const FaultInjector* injector() const { return inject_; }
  /// Injected faults that actually fired through this guard (obs feed).
  [[nodiscard]] std::uint32_t injected_fired() const { return injected_fired_; }

 private:
  static constexpr std::uint32_t kDeadlinePollMask = 0xFF;

  std::uint32_t net_id_;
  GuardConfig cfg_;
  const FaultInjector* inject_;
  std::uint64_t steps_ = 0;
  std::uint32_t deadline_poll_ = 0;
  std::uint32_t fired_sites_ = 0;
  std::uint32_t injected_fired_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_at_;
};

/// Null-safe helpers — engines call these with their config's guard pointer.
inline void guard_step(NetGuard* g, std::uint64_t n = 1) {
  if (g) g->step(n);
}
inline void guard_arena(NetGuard* g, std::uint32_t live_nodes) {
  if (g) g->arena_check(live_nodes);
}
inline void guard_phase(NetGuard* g, std::uint32_t live_nodes) {
  if (g) g->phase_check(live_nodes);
}
inline void guard_point(NetGuard* g, FaultSite site) {
  if (g) g->fault_point(site);
}

}  // namespace merlin
