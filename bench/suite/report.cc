#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "suite.h"

namespace antidote::suite {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double current_rss_bytes() {
  // /proc/self/statm: total and resident sizes in pages.
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double host_ref_gflops() {
  // Naive i-k-j matmul at a fixed size: a host-speed reference printed
  // beside the results, never used to normalise them.
  constexpr int kN = 192;
  std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = static_cast<float>(i % 7) * 0.25f;
    b[i] = static_cast<float>(i % 5) * 0.5f;
  }
  std::vector<double> gflops;
  double checksum = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    std::fill(c.begin(), c.end(), 0.f);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float aik = a[i * kN + k];
        for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
      }
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    checksum += c[(rep * 31) % (kN * kN)];
    gflops.push_back(2.0 * kN * kN * kN / s / 1e9);
  }
  // Keeps the loop observable to the optimizer.
  if (checksum < 0.0) std::printf("%f\n", checksum);
  return median(gflops);
}

}  // namespace antidote::suite
