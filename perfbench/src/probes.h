#pragma once
// Layer probes from outside the engine: replay public calls on a finished
// run's own shared-cache contents and time each operation.

#include "bench.h"
#include "cache/shard.h"

namespace perfbench {

/// Replays, on the contents of `cache` (left by a traced run): lookup of
/// every key, apply() of every entry into a fresh cache, materialize_entry
/// into an arena, the curve algebra's batch ops (merge / extend / buffer)
/// and SolutionCurve::prune over the materialized curves, and
/// SolutionArena::mark_compact.  Each probe runs several rounds; the
/// per-operation median lands in `rep` as the *.probe.* metrics.  A replay
/// that disagrees with the cache (a missed lookup, a lost entry, a curve
/// that materializes differently) marks `rep` wrong.
void run_probes(const merlin::SubproblemCache& cache,
                const merlin::BufferLibrary& lib, BenchSpans& spans,
                Report& rep);

}  // namespace perfbench
