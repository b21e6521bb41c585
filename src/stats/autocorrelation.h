// Sample autocorrelation and dominant-period detection.
//
// Used to verify the 50 ms broadcast periodicity: the autocorrelation of the
// 10 ms outbound packet-count series peaks at lag 5.
// gt-lint: allow(orphan-module) a verification check, not dead code: the
// pipeline test's DominantPeriod pins the paper's 50 ms broadcast period.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gametrace::stats {

// Sample autocorrelation at a single lag (biased estimator, as standard).
// Requires lag < xs.size(); returns 0 for a zero-variance series.
[[nodiscard]] double AutocorrelationAt(std::span<const double> xs, std::size_t lag);

// Autocorrelations for lags 0..max_lag inclusive.
[[nodiscard]] std::vector<double> Autocorrelation(std::span<const double> xs,
                                                  std::size_t max_lag);

// The lag in [1, max_lag] with the highest autocorrelation - the dominant
// period of the series in units of samples. Returns 0 if no positive peak.
[[nodiscard]] std::size_t DominantPeriod(std::span<const double> xs, std::size_t max_lag);

}  // namespace gametrace::stats
