// Shared helpers of pbench: flag parsing, the process-wide clock every span
// and sample is stamped with, percentiles, and the metric objects pbench
// prints.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/status.h"

namespace pbench {

/// `--flag value` / `--flag=value` parser (bare flags map to "true").
class Args {
 public:
  Args(int argc, char** argv, int first);

  std::string Str(const std::string& key, const std::string& fallback = "") const;
  uint64_t Uint(const std::string& key, uint64_t fallback) const;
  double Double(const std::string& key, double fallback) const;
  /// Exits with code 2 when the flag is missing.
  std::string Require(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Microseconds since the first call in this process (steady clock). Every
/// span, schedule and sample in one pbench process shares this time base.
double NowUs();

/// Busy-free sleep until NowUs() reaches `target_us`.
void SleepUntilUs(double target_us);

/// Nearest-rank percentile of `values` (sorted in place). 0 when empty.
double Percentile(std::vector<double>* values, double p);

/// The highest percentile in (0, 0.99] that still has at least ten samples
/// beyond it: 0.99 once there are 1000 samples, lower for smaller samples.
double SupportedTailPercentile(size_t samples);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Splits "a,b,c" on commas.
std::vector<std::string> SplitCommas(const std::string& spec);

/// Appends {"value": v, "unit": u} under `name` in `metrics`.
void PutMetric(bbsmine::obs::JsonValue* metrics, const std::string& name,
               double value, const std::string& unit);

/// Prints `doc` as one compact JSON line on stdout.
void PrintJsonLine(const bbsmine::obs::JsonValue& doc);

/// Exits with code 1 after printing `status` when it is an error.
void DieIfError(const bbsmine::Status& status, const char* what);

template <typename T>
T Unwrap(bbsmine::Result<T> result, const char* what) {
  DieIfError(result.status(), what);
  return std::move(result).value();
}

}  // namespace pbench

#endif  // PERFBENCH_COMMON_H_
