#include "flow/circuit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "net/rng.h"
#include "tree/evaluate.h"

namespace merlin {

double Circuit::gate_area(const BufferLibrary& lib) const {
  double a = 0.0;
  for (const Gate& g : gates) a += lib[g.cell].area;
  return a;
}

Circuit make_random_circuit(const CircuitSpec& spec, const BufferLibrary& lib) {
  if (lib.empty()) throw std::invalid_argument("make_random_circuit: empty library");
  if (spec.n_gates < spec.n_primary_inputs + 2)
    throw std::invalid_argument("make_random_circuit: too few gates");

  Circuit ckt;
  ckt.name = spec.name;
  ckt.wire = WireModel{};
  ckt.die_side = spec.die_side > 0
                     ? spec.die_side
                     : static_cast<std::int32_t>(
                           120.0 * std::ceil(std::sqrt(static_cast<double>(spec.n_gates))));

  Rng rng(spec.seed);
  std::vector<std::size_t> fanout_count(spec.n_gates, 0);

  // A small set of "control-like" gates attracts extra fanout so the circuit
  // contains the medium/high-fanout nets the paper's experiments live on.
  const std::size_t n_hot = std::max<std::size_t>(1, spec.n_gates / 16);

  for (std::size_t gi = 0; gi < spec.n_gates; ++gi) {
    Gate g;
    g.name = "g" + std::to_string(gi);
    g.cell = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(lib.size()) - 1));
    g.pos = Point{static_cast<std::int32_t>(rng.uniform_int(0, ckt.die_side)),
                  static_cast<std::int32_t>(rng.uniform_int(0, ckt.die_side))};
    if (gi >= spec.n_primary_inputs) {
      const auto nin = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t t = 0; t < nin; ++t) {
        // Bias toward the hot set to create high-fanout nets; respect the
        // per-net fanout cap.
        std::size_t pick;
        for (int attempt = 0;; ++attempt) {
          if (rng.next_double() < 0.35)
            pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(std::min(n_hot, gi)) - 1));
          else
            pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(gi) - 1));
          if (fanout_count[pick] < spec.max_fanout) break;
          if (attempt > 8) { pick = spec.n_gates; break; }  // give up this pin
        }
        if (pick >= spec.n_gates) continue;
        if (std::find(g.fanins.begin(), g.fanins.end(),
                      static_cast<std::uint32_t>(pick)) != g.fanins.end())
          continue;
        g.fanins.push_back(static_cast<std::uint32_t>(pick));
        ++fanout_count[pick];
      }
      if (g.fanins.empty()) {  // never orphan a logic gate
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gi) - 1));
        g.fanins.push_back(static_cast<std::uint32_t>(pick));
        ++fanout_count[pick];
      }
    }
    ckt.gates.push_back(std::move(g));
  }
  for (std::size_t gi = 0; gi < spec.n_gates; ++gi)
    if (fanout_count[gi] == 0) ckt.gates[gi].is_primary_output = true;
  return ckt;
}

CircuitSpec circuit_job_spec(std::size_t gates, std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = "ckt" + std::to_string(gates);
  spec.n_gates = gates;
  spec.seed = seed;
  return spec;
}

namespace {

constexpr double kOutputPinLoad = 30.0;  // fF at primary outputs

// Star-model estimate of a net's per-sink delay (driver gate delay into the
// summed star load plus the sink's own spoke Elmore delay).  Used for the
// pre-layout arrival/required-time passes, the role net-length estimation
// plays in a real flow.
struct NetEstimate {
  double driver_delay = 0.0;
  std::vector<double> spoke_delay;  // per consumer
};

// Fanout lists of every gate (consumers in ascending gate id).
std::vector<std::vector<std::uint32_t>> fanout_lists(const Circuit& ckt) {
  std::vector<std::vector<std::uint32_t>> fanouts(ckt.gates.size());
  for (std::size_t gi = 0; gi < ckt.gates.size(); ++gi)
    for (std::uint32_t f : ckt.gates[gi].fanins)
      fanouts[f].push_back(static_cast<std::uint32_t>(gi));
  return fanouts;
}

}  // namespace

std::vector<CircuitNet> extract_circuit_nets(const Circuit& ckt,
                                             const BufferLibrary& lib,
                                             double req_compression) {
  const std::size_t ng = ckt.gates.size();
  const auto fanouts = fanout_lists(ckt);

  // The load a gate's output net presents, star-estimated.
  auto est_net = [&](std::size_t gi) {
    NetEstimate e;
    double load = 0.0;
    for (std::uint32_t c : fanouts[gi]) {
      const double len = static_cast<double>(manhattan(ckt.gates[gi].pos, ckt.gates[c].pos));
      load += ckt.wire.wire_cap(len) + lib[ckt.gates[c].cell].input_cap;
    }
    if (fanouts[gi].empty()) load = kOutputPinLoad;
    e.driver_delay = lib[ckt.gates[gi].cell].delay.at_nominal(load);
    for (std::uint32_t c : fanouts[gi]) {
      const double len = static_cast<double>(manhattan(ckt.gates[gi].pos, ckt.gates[c].pos));
      e.spoke_delay.push_back(
          ckt.wire.elmore_delay(len, lib[ckt.gates[c].cell].input_cap));
    }
    return e;
  };
  std::vector<NetEstimate> est(ng);
  for (std::size_t gi = 0; gi < ng; ++gi) est[gi] = est_net(gi);

  // Forward estimated arrivals (a[g] = arrival at g's input side; gates are
  // stored topologically, fanins first).
  std::vector<double> est_arr(ng, 0.0);
  double target = 0.0;
  for (std::size_t gi = 0; gi < ng; ++gi) {
    for (std::size_t ci = 0; ci < fanouts[gi].size(); ++ci) {
      const std::uint32_t c = fanouts[gi][ci];
      est_arr[c] = std::max(est_arr[c],
                            est_arr[gi] + est[gi].driver_delay + est[gi].spoke_delay[ci]);
    }
    if (ckt.gates[gi].is_primary_output)
      target = std::max(target, est_arr[gi] + est[gi].driver_delay);
  }

  // Backward estimated required times at each gate's input side.
  std::vector<double> est_req(ng, std::numeric_limits<double>::infinity());
  for (std::size_t gi = ng; gi-- > 0;) {
    if (ckt.gates[gi].is_primary_output)
      est_req[gi] = std::min(est_req[gi], target - est[gi].driver_delay);
    for (std::size_t ci = 0; ci < fanouts[gi].size(); ++ci) {
      const std::uint32_t c = fanouts[gi][ci];
      est_req[gi] = std::min(est_req[gi], est_req[c] - est[gi].spoke_delay[ci] -
                                              est[gi].driver_delay);
    }
  }

  std::vector<CircuitNet> nets;
  for (std::size_t gi = 0; gi < ng; ++gi) {
    if (fanouts[gi].empty()) continue;

    CircuitNet cn;
    cn.driver_gate = static_cast<std::uint32_t>(gi);
    Net& net = cn.net;
    net.name = ckt.name + "." + ckt.gates[gi].name;
    net.wire = ckt.wire;
    net.source = ckt.gates[gi].pos;
    net.driver.name = lib[ckt.gates[gi].cell].name;
    net.driver.delay = lib[ckt.gates[gi].cell].delay;
    net.driver.out_slew = lib[ckt.gates[gi].cell].out_slew;
    for (std::uint32_t c : fanouts[gi]) {
      Sink s;
      s.pos = ckt.gates[c].pos;
      s.load = lib[ckt.gates[c].cell].input_cap;
      // Pin required time relative to the common clock target.
      s.req_time = est_req[c] - est_arr[gi];
      net.sinks.push_back(s);
    }
    if (req_compression < 1.0) {
      double max_req = net.sinks[0].req_time;
      for (const Sink& s : net.sinks) max_req = std::max(max_req, s.req_time);
      for (Sink& s : net.sinks)
        s.req_time = max_req - (max_req - s.req_time) * req_compression;
    }
    nets.push_back(std::move(cn));
  }
  return nets;
}

RoutingTree trivial_net_tree(const Net& net) {
  if (net.fanout() != 1)
    throw std::invalid_argument("trivial_net_tree: net is not two-pin");
  RoutingTree tree;
  tree.add_node(NodeKind::kSource, net.source, -1, 0);
  tree.add_node(NodeKind::kSink, net.sinks[0].pos, 0, 0);
  return tree;
}

RoutingTree star_net_tree(const Net& net) {
  if (net.fanout() == 0)
    throw std::invalid_argument("star_net_tree: net has no sinks");
  RoutingTree tree;
  tree.add_node(NodeKind::kSource, net.source, -1, 0);
  for (std::size_t s = 0; s < net.fanout(); ++s)
    tree.add_node(NodeKind::kSink, net.sinks[s].pos,
                  static_cast<std::int32_t>(s), 0);
  return tree;
}

double circuit_critical_delay(const Circuit& ckt, const BufferLibrary& lib,
                              const std::vector<std::vector<double>>& realized) {
  const std::size_t ng = ckt.gates.size();
  if (realized.size() != ng)
    throw std::invalid_argument("circuit_critical_delay: realized size mismatch");
  const auto fanouts = fanout_lists(ckt);

  std::vector<double> arr(ng, 0.0);
  double delay_ps = 0.0;
  for (std::size_t gi = 0; gi < ng; ++gi) {
    if (!fanouts[gi].empty() && realized[gi].size() != fanouts[gi].size())
      throw std::invalid_argument("circuit_critical_delay: bad realized row " +
                                  std::to_string(gi));
    for (std::size_t ci = 0; ci < fanouts[gi].size(); ++ci) {
      const std::uint32_t c = fanouts[gi][ci];
      arr[c] = std::max(arr[c], arr[gi] + realized[gi][ci]);
    }
    if (ckt.gates[gi].is_primary_output)
      delay_ps = std::max(
          delay_ps, arr[gi] + lib[ckt.gates[gi].cell].delay.at_nominal(kOutputPinLoad));
  }
  return delay_ps;
}

}  // namespace merlin
