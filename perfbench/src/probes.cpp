// Layer probes: cache lookup/apply, materialize_entry, curve algebra and
// arena compaction, each timed per operation on a run's own cache contents.

#include "probes.h"

#include <cstdio>
#include <functional>

#include "cache/store.h"
#include "curve/curve.h"
#include "flow/flows.h"

namespace perfbench {

using namespace merlin;

namespace {

constexpr int kRounds = 3;

/// Wall ns of `fn` divided by `units` (0 when there were none).
double ns_per(const std::function<void()>& fn, double units) {
  const auto t0 = Clock::now();
  fn();
  const double ns = ms_since(t0) * 1e6;
  return units > 0 ? ns / units : 0.0;
}

/// Wall ns of `fn` per event of counter `c` that `fn` records into `sink`.
double ns_per_event(const std::function<void()>& fn, const ObsSink& sink,
                    Counter c) {
  const auto before = static_cast<double>(sink.counters.get(c));
  const auto t0 = Clock::now();
  fn();
  const double ns = ms_since(t0) * 1e6;
  const double n = static_cast<double>(sink.counters.get(c)) - before;
  return n > 0 ? ns / n : 0.0;
}

bool same_points(const std::vector<Solution>& want, const SolutionCurve& got) {
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Solution& a = want[i];
    const Solution& b = got[i];
    if (a.req_time != b.req_time || a.load != b.load || a.area != b.area ||
        a.wirelen != b.wirelen)
      return false;
  }
  return true;
}

}  // namespace

void run_probes(const SubproblemCache& cache, const BufferLibrary& lib,
                BenchSpans& spans, Report& rep) {
  std::vector<CacheEntry> entries;
  cache.for_each_entry_oldest_first(
      [&](std::size_t, const CacheEntry& e) { entries.push_back(e); });
  if (entries.empty()) {
    rep.wrong("probes: the run left an empty shared cache");
    return;
  }
  double nodes = 0;
  for (const CacheEntry& e : entries) nodes += static_cast<double>(e.node_cost());
  const double n_entries = static_cast<double>(entries.size());

  // The kernel probes prune like a group prune of the circuit's deepest net.
  ObsSink ps;
  PruneConfig cfg = scaled_flow_config(9).merlin.bubble.group_prune;
  cfg.obs = &ps;

  std::vector<double> lookup, apply, mat, merge, extend, buffer, prune, compact;
  for (int round = 0; round < kRounds; ++round) {
    {
      BenchSpan s(spans, "probe.cache.lookup");
      std::size_t hits = 0;
      CacheEntry out;
      lookup.push_back(ns_per(
          [&] {
            for (const CacheEntry& e : entries) hits += cache.lookup(e.key, out);
          },
          n_entries));
      if (hits != entries.size()) rep.wrong("probes: lookup missed a cached key");
    }
    {
      SubproblemCache fresh(cache.config());
      FlushBatch fb;
      fb.staged = entries;
      BenchSpan s(spans, "probe.cache.apply");
      apply.push_back(ns_per([&] { (void)fresh.apply(std::move(fb)); },
                             n_entries));
      if (fresh.entry_count() != cache.entry_count() ||
          fresh.node_cost() != cache.node_cost())
        rep.wrong("probes: apply into a fresh cache lost entries");
    }

    SolutionArena arena;
    std::vector<std::vector<SolutionCurve>> curves(entries.size());
    {
      BenchSpan s(spans, "probe.cache.materialize_entry");
      mat.push_back(ns_per(
          [&] {
            for (std::size_t i = 0; i < entries.size(); ++i)
              curves[i] = materialize_entry(entries[i], arena);
          },
          nodes));
    }
    if (round == 0)
      for (std::size_t i = 0; i < entries.size(); ++i)
        for (std::size_t p = 0; p < entries[i].curves.size(); ++p)
          if (p >= curves[i].size() ||
              !same_points(entries[i].curves[p], curves[i][p])) {
            rep.wrong("probes: materialize_entry changed a cached curve");
            i = entries.size() - 1;
            break;
          }

    // Non-empty curves of each entry: the operands of the kernel probes.
    std::vector<std::vector<const SolutionCurve*>> groups(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
      for (const SolutionCurve& c : curves[i])
        if (!c.empty()) groups[i].push_back(&c);

    {
      BenchSpan s(spans, "probe.kernel.push_merged_options");
      merge.push_back(ns_per_event(
          [&] {
            std::vector<MergeJob> jobs;
            for (const auto& g : groups) {
              jobs.clear();
              for (std::size_t k = 0; k + 1 < g.size(); ++k)
                jobs.push_back(MergeJob{g[k], g[k + 1]});
              if (jobs.empty()) continue;
              SolutionCurve dst;
              push_merged_options(arena, jobs, Point{0, 0}, cfg, dst);
            }
          },
          ps, Counter::kMergeCandidates));
    }
    {
      BenchSpan s(spans, "probe.kernel.push_extended_options");
      const WireModel wire{};
      extend.push_back(ns_per_event(
          [&] {
            std::vector<Point> pts;
            for (const auto& g : groups) {
              if (g.empty()) continue;
              pts.clear();
              for (std::size_t k = 0; k < g.size(); ++k)
                pts.push_back(Point{static_cast<std::int32_t>(20 * k + 10),
                                    static_cast<std::int32_t>(15 * k)});
              SolutionCurve dst;
              push_extended_options(arena, g, pts, Point{0, 0}, wire, cfg, dst);
            }
          },
          ps, Counter::kExtendCandidates));
    }
    {
      BenchSpan s(spans, "probe.kernel.push_buffered_options");
      buffer.push_back(ns_per_event(
          [&] {
            SolutionCurve dst;
            for (const auto& g : groups)
              for (const SolutionCurve* c : g) {
                dst.clear();
                push_buffered_options(arena, *c, Point{0, 0}, lib, dst, 1, &ps);
              }
          },
          ps, Counter::kBufferCandidates));
    }
    {
      // Pool every curve of an entry into one unpruned curve, then prune it.
      std::vector<SolutionCurve> pooled(groups.size());
      for (std::size_t i = 0; i < groups.size(); ++i)
        for (const SolutionCurve* c : groups[i])
          for (const Solution& sol : *c) pooled[i].push(sol);
      BenchSpan s(spans, "probe.kernel.prune");
      prune.push_back(ns_per_event(
          [&] {
            for (SolutionCurve& c : pooled)
              if (!c.empty()) c.prune(cfg);
          },
          ps, Counter::kCurvePointsPushed));
    }
    {
      // Keep every other entry's curves alive; everything else is garbage.
      std::vector<SolNodeId> roots;
      for (std::size_t i = 0; i < curves.size(); i += 2)
        for (const SolutionCurve& c : curves[i]) c.collect_roots(roots);
      const double before = static_cast<double>(arena.size());
      BenchSpan s(spans, "probe.arena.mark_compact");
      compact.push_back(ns_per([&] { (void)arena.mark_compact(roots); },
                               before));
      if (static_cast<double>(arena.size()) > before)
        rep.wrong("probes: mark_compact grew the arena");
    }
  }

  std::printf("layer probes on the run's cache (%zu entries, %.0f nodes; "
              "median of %d rounds):\n",
              entries.size(), nodes, kRounds);
  const auto set = [&](const char* name, const std::vector<double>& v,
                       const char* per) {
    const double m = median(v);
    std::printf("  %-38s %12.1f ns %s\n", name, m, per);
    rep.set(name, m, "ns");
  };
  set("cache.probe.lookup_ns", lookup, "per lookup");
  set("cache.probe.apply_ns_per_entry", apply, "per entry");
  set("cache.probe.materialize_ns_per_node", mat, "per node");
  set("kernel.probe.merge_ns_per_cand", merge, "per merge candidate");
  set("kernel.probe.extend_ns_per_cand", extend, "per extend candidate");
  set("kernel.probe.buffer_ns_per_cand", buffer, "per buffer candidate");
  set("kernel.probe.prune_ns_per_point", prune, "per point pushed");
  set("arena.probe.compact_ns_per_node", compact, "per node before");
}

}  // namespace perfbench
