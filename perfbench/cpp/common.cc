#include "common.h"

#include <cmath>
#include <cstring>
#include <iostream>
#include <thread>

namespace pbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "pbench: unexpected argument: " << arg << "\n";
      std::exit(2);
    }
    std::string key = arg.substr(2);
    if (size_t eq = key.find('='); eq != std::string::npos) {
      values_[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "true";
    }
  }
}

std::string Args::Str(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

uint64_t Args::Uint(const std::string& key, uint64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

double Args::Double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

std::string Args::Require(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    std::cerr << "pbench: missing required flag --" << key << "\n";
    std::exit(2);
  }
  return it->second;
}

double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void SleepUntilUs(double target_us) {
  double remaining = target_us - NowUs();
  if (remaining > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(remaining)));
  }
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(std::ceil(p * values->size()));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

double SupportedTailPercentile(size_t samples) {
  if (samples <= 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<std::string> SplitCommas(const std::string& spec) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= spec.size() && !spec.empty()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    parts.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return parts;
}

void PutMetric(bbsmine::obs::JsonValue* metrics, const std::string& name,
               double value, const std::string& unit) {
  bbsmine::obs::JsonValue entry = bbsmine::obs::JsonValue::Object();
  entry.Set("value", bbsmine::obs::JsonValue::Double(value));
  entry.Set("unit", bbsmine::obs::JsonValue::String(unit));
  metrics->Set(name, std::move(entry));
}

void PrintJsonLine(const bbsmine::obs::JsonValue& doc) {
  std::string text = doc.Serialize(/*indent=*/0);
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void DieIfError(const bbsmine::Status& status, const char* what) {
  if (status.ok()) return;
  std::cerr << "pbench: " << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

}  // namespace pbench
