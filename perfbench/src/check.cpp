// Correctness checks run on every result the benchmark times, and the
// self-test that shows they catch a corrupted tree and a flipped digest.

#include <cstdio>
#include <string>

#include "bench.h"
#include "flow/flows.h"
#include "tree/evaluate.h"
#include "tree/validate.h"

namespace perfbench {

using namespace merlin;

namespace {

bool same_eval(const EvalResult& a, const EvalResult& b) {
  return a.root_load == b.root_load && a.root_req_time == b.root_req_time &&
         a.driver_delay == b.driver_delay &&
         a.driver_req_time == b.driver_req_time &&
         a.buffer_area == b.buffer_area && a.wirelength == b.wirelength &&
         a.buffer_count == b.buffer_count;
}

/// Empty when the net's result passes every check, else the first problem.
std::string net_problem(const BatchNetResult& nr, const Net& net,
                        const BufferLibrary& lib) {
  if (nr.status != NetStatus::kOk)
    return std::string("status ") + net_status_name(nr.status) + ": " +
           nr.error;
  const EvalResult re = evaluate_tree(net, nr.result.tree, lib);
  if (!same_eval(re, nr.result.eval)) return "evaluate_tree disagrees with eval";
  const TreeStructure st = analyze_structure(net, nr.result.tree);
  if (!st.well_formed) return "tree not well-formed: " + st.issue;
  if (!nr.trivial) {
    const FlowConfig cfg = scaled_flow_config(net.fanout());
    if (!cfg.merlin.bubble.allow_unbuffered_groups &&
        !is_ca_tree(net, nr.result.tree, cfg.merlin.bubble.alpha))
      return "tree violates the Ca_Tree properties";
  }
  return {};
}

}  // namespace

std::size_t verify_batch(const BatchResult& r, const NetIndex& nets,
                         const BufferLibrary& lib, Report& rep) {
  std::size_t bad = 0;
  for (const BatchNetResult& nr : r.nets) {
    const auto it = nets.find(nr.net_id);
    const std::string why =
        it == nets.end() ? std::string("result for an unknown net")
                         : net_problem(nr, *it->second, lib);
    if (why.empty()) continue;
    ++bad;
    rep.fail("net " + std::to_string(nr.net_id) + ": " + why);
  }
  return bad;
}

bool check_digest(std::uint64_t want, std::uint64_t got, const char* what,
                  Report& rep) {
  if (want == got) return true;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: digest %016llx, expected %016llx", what,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  rep.fail(buf);
  return false;
}

void self_test(const BatchResult& r, const NetIndex& nets,
               const BufferLibrary& lib, Report& rep) {
  // Corrupt a copy of the first multi-sink tree: move one sink pin 10 cm to
  // the right of everything, keeping the claimed eval.  (A diagonal move
  // could keep its Manhattan wire length.)
  BatchResult bad = r;
  BatchNetResult* victim = nullptr;
  for (BatchNetResult& nr : bad.nets)
    if (!nr.trivial && nr.result.tree.size() > 2) {
      victim = &nr;
      break;
    }
  if (victim == nullptr) {
    rep.wrong("self-test: no multi-sink tree to corrupt");
    return;
  }
  const RoutingTree& src = victim->result.tree;
  RoutingTree moved;
  bool shifted = false;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const TreeNode& n = src.node(i);
    Point at = n.at;
    if (!shifted && n.kind == NodeKind::kSink) {
      at.x += 100000;
      shifted = true;
    }
    moved.add_node(n.kind, at, n.idx, n.parent, n.wire_width);
  }
  victim->result.tree = std::move(moved);

  Report probe;
  const bool evaluator_caught = verify_batch(bad, nets, lib, probe) == 1;
  const std::uint64_t good_digest = batch_result_digest(r);
  const bool digest_caught = batch_result_digest(bad) != good_digest;
  Report flipped;
  const bool flip_caught =
      !check_digest(good_digest, good_digest ^ 1u, "self-test", flipped);
  std::printf("self-test: corrupted tree %s the evaluator check, %s the "
              "digest; flipped digest %s the digest check\n",
              evaluator_caught ? "fails" : "PASSES",
              digest_caught ? "changes" : "DOES NOT CHANGE",
              flip_caught ? "fails" : "PASSES");
  if (!evaluator_caught || !digest_caught || !flip_caught)
    rep.wrong("self-test: a corrupted result slipped through the checks");
}

}  // namespace perfbench
