// Report, span table and small helpers shared by the workloads.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

void print_env(const Args& a, std::size_t threads) {
  std::printf("workload=%s seed=%llu seconds=%d trace=%d nproc=%zu "
              "threads=%zu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, available_cpus(), threads);
}

merlin::CacheConfig cli_cache_config() {
  merlin::CacheConfig cc;
  cc.capacity_nodes = 64ull * 1024ull * 1024ull / sizeof(merlin::SolNode);
  return cc;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (problems_.size() < 20) problems_.push_back(why);
}

void Report::wrong(const std::string& why) {
  wrong_ = true;
  if (problems_.size() < 20) problems_.push_back(why);
}

void BenchSpans::print() const {
  std::printf("bench spans (the benchmark's own calls):\n");
  std::printf("  %-34s %8s %12s %12s\n", "span", "count", "total_ms",
              "mean_ms");
  for (const auto& [name, r] : rows_)
    std::printf("  %-34s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(r.count), r.total_ms,
                r.count ? r.total_ms / static_cast<double>(r.count) : 0.0);
}

double percentile_ms(const merlin::LatencyHistogram& h, double p,
                     const char* label) {
  // The histogram picks the bucket that holds the nearest-rank sample; the
  // value is interpolated inside that bucket by the rank's position among
  // its samples, so it moves smoothly rather than in ~3% bucket steps.
  using merlin::LatencyHistogram;
  const auto n = h.count();
  const std::uint64_t lower = h.quantile(p);
  const std::size_t i = LatencyHistogram::bucket_index(lower);
  std::uint64_t before = 0;
  for (std::size_t k = 0; k < i; ++k) before += h.buckets()[k];
  const double rank = std::clamp(std::ceil(p / 100.0 * static_cast<double>(n)),
                                 1.0, static_cast<double>(std::max<std::uint64_t>(n, 1)));
  const double width =
      i + 1 < LatencyHistogram::kSlots
          ? static_cast<double>(LatencyHistogram::bucket_lower(i + 1) - lower)
          : 1.0;
  const double in_bucket = static_cast<double>(h.buckets()[i]);
  const double frac =
      in_bucket > 0 ? (rank - static_cast<double>(before) - 0.5) / in_bucket : 0.0;
  const double ms = (static_cast<double>(lower) + frac * width) / 1000.0;
  const auto beyond =
      static_cast<unsigned long long>(static_cast<double>(n) * (100.0 - p) / 100.0);
  std::printf("  %s p%g = %.3f ms (n=%llu, beyond=%llu%s)\n", label, p, ms,
              static_cast<unsigned long long>(n), beyond,
              beyond < 10 ? ", fewer than 10 samples beyond" : "");
  return ms;
}

}  // namespace perfbench
