#pragma once
// Synthetic mapped-circuit substrate + static timing analysis.
//
// Table 2 of the paper evaluates the three flows inside a full design flow:
// mapped benchmark circuits, placement, per-net buffered routing generation,
// detailed routing, then post-layout timing.  SIS, the industrial library
// and the benchmark netlists are not available, so this module synthesizes
// the equivalent (DESIGN.md documents the substitution):
//
//   * a random mapped DAG of library cells with a random legal placement,
//   * a backward required-time pass that gives every net's sinks the pin
//     required times a mapped netlist would provide,
//   * per-net construction by any of the three flows (flow/batch.h),
//   * a forward arrival-time STA over the realized buffered routing trees,
//     yielding the circuit-level delay/area that Table 2 reports.

#include <cstdint>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "flow/flows.h"
#include "net/net.h"

namespace merlin {

/// One mapped gate.  Cell timing/area are borrowed from a library buffer
/// (representative of similarly sized combinational cells).
struct Gate {
  std::string name;
  std::size_t cell = 0;  ///< index into the library
  Point pos;
  std::vector<std::uint32_t> fanins;  ///< driving gate ids (empty = primary input)
  bool is_primary_output = false;
};

/// A synthetic mapped circuit: gates in topological order (fanins always
/// precede their consumers).
struct Circuit {
  std::string name;
  std::vector<Gate> gates;
  WireModel wire;
  std::int32_t die_side = 0;

  /// Total cell area (excluding routing buffers).
  [[nodiscard]] double gate_area(const BufferLibrary& lib) const;
};

/// Parameters of the synthetic circuit generator.
struct CircuitSpec {
  std::string name = "ckt";
  std::size_t n_gates = 100;
  std::size_t n_primary_inputs = 8;
  double avg_fanout = 3.0;
  std::size_t max_fanout = 9;
  std::uint64_t seed = 1;
  std::int32_t die_side = 0;  ///< 0 = auto from gate count
};

/// Generates a deterministic random mapped circuit.
Circuit make_random_circuit(const CircuitSpec& spec, const BufferLibrary& lib);

/// The spec of the circuit job (gates, seed) that merlin_cli --circuit and
/// merlin_d both run: name "ckt<gates>", every other field the default.
/// One definition, so the daemon's results stay digest-equal to the CLI's.
CircuitSpec circuit_job_spec(std::size_t gates, std::uint64_t seed);

/// Circuit-level result of running one flow on every net.
struct CircuitFlowResult {
  double area = 0.0;        ///< gate area + inserted buffer area
  double delay_ps = 0.0;    ///< critical path arrival at the worst output
  double runtime_ms = 0.0;  ///< total buffered-routing construction time
  std::size_t nets_routed = 0;
  std::size_t buffers_inserted = 0;
};

/// One net of a circuit, extracted into the per-net optimizer's input form.
/// `driver_gate` is the id of the gate whose output pin drives the net — the
/// stable key by which batch execution shards, merges and reports.
struct CircuitNet {
  std::uint32_t driver_gate = 0;
  Net net;

  /// Two-pin nets are routed as a direct wire, identically under every flow,
  /// and bypass the per-net optimizer entirely.
  [[nodiscard]] bool trivial() const { return net.fanout() == 1; }
};

/// Extracts every driven net of the circuit (ascending driver-gate id) with
/// the pin required times a backward estimated-timing pass provides, as
/// BatchRunner::run hands them to the per-net flow.
///
/// `req_compression` scales each net's spread of those required times
/// toward its maximum (1 = use the raw backward-STA estimates, 0 = treat
/// every sink as equally critical).  Pre-layout estimates are stale by
/// construction — an optimizer that aggressively sacrifices "non-critical"
/// sinks can be burned when the realized delays shift the critical path —
/// so production flows compress them (bench_table2 uses 0.5, through
/// BatchOptions::req_compression).
std::vector<CircuitNet> extract_circuit_nets(const Circuit& ckt,
                                             const BufferLibrary& lib,
                                             double req_compression = 1.0);

/// The direct-wire routing tree used for a trivial (single-sink) net.
RoutingTree trivial_net_tree(const Net& net);

/// The unbuffered star tree: the source drives every sink by a direct wire.
/// Always legal and always constructible in O(fanout) with no DP, no arena,
/// and no library use — the terminal rung of the batch engine's degradation
/// ladder (the [Gi90]-style guaranteed-feasible fallback) when every
/// optimizing constructor has failed.  Works for any fanout >= 1.
RoutingTree star_net_tree(const Net& net);

/// Forward arrival-time STA over realized per-net delays.  `realized[g][ci]`
/// is the delay from gate g's input through its gate and routed net to its
/// ci-th fanout consumer's input (`sink_path_delays` order); gates with no
/// fanouts contribute their primary-output delay.  Returns the critical
/// arrival at the worst primary output (ps).
double circuit_critical_delay(const Circuit& ckt, const BufferLibrary& lib,
                              const std::vector<std::vector<double>>& realized);

}  // namespace merlin
