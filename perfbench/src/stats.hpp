#pragma once

// Small statistics and reporting helpers shared by the benchmark.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// One reported metric: a value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Seconds since `t0_ns` (host_ns stamps).
double seconds_since(std::int64_t t0_ns);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// 64-bit mix of a seed and a stream index (splitmix64), so every input the
/// benchmark generates is a pure function of --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
