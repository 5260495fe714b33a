#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace e2ebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Digest::add(std::uint64_t word) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (word >> (8 * byte)) & 0xffu;
    state_ *= 0x100000001b3ull;
  }
}

void Digest::add(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Reporter::time(const std::string& name, double seconds, TimeUnit unit) {
  switch (unit) {
    case TimeUnit::kSeconds: lines_.push_back({name, seconds, "s"}); return;
    case TimeUnit::kMilliseconds: lines_.push_back({name, seconds * 1e3, "ms"}); return;
    case TimeUnit::kMicroseconds: lines_.push_back({name, seconds * 1e6, "us"}); return;
    case TimeUnit::kNanoseconds: lines_.push_back({name, seconds * 1e9, "ns"}); return;
  }
}

void Reporter::rate(const std::string& name, double per_second) {
  lines_.push_back({name, per_second, "1/s"});
}

void Reporter::count(const std::string& name, double value, const std::string& unit) {
  lines_.push_back({name, value, unit});
}

void Reporter::ratio(const std::string& name, double value) {
  lines_.push_back({name, value, "ratio"});
}

void Reporter::mebibytes(const std::string& name, double value) {
  lines_.push_back({name, value, "MiB"});
}

void Reporter::print() const {
  for (const auto& line : lines_) {
    std::printf("metric %s %.17g %s\n", line.name.c_str(), line.value, line.unit.c_str());
  }
}

}  // namespace e2ebench
