// Measurement helpers the benchmark owns: a fixed-size latency histogram
// that records without allocating, process-level cost counters (CPU time,
// context switches, threads, heap allocations), and the process-wide
// switch that turns tracing on for the traced phase.
#pragma once

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// True only during a traced phase: the seam decorators time their calls
/// and operator new counts allocations.  Off, both just forward.
inline std::atomic<bool> g_tracing{false};

/// Heap allocations counted while g_tracing is set (see alloc_count.cpp).
std::uint64_t allocations() noexcept;

/// Latency histogram in nanoseconds: exact below 128 ns, then 128
/// sub-buckets per power of two (under 0.8% relative width) up to ~34 s,
/// so quantiles interpolate inside a narrow bucket and recording never
/// allocates.  (pio::LogHistogram cannot merge, which per-slice and
/// per-client histograms need, and takes a log per sample.)
class LatencyHist {
 public:
  void add(std::uint64_t ns) noexcept {
    ++counts_[index(ns)];
    ++total_;
  }
  void merge(const LatencyHist& o) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  std::uint64_t count() const noexcept { return total_; }

  /// q-quantile in microseconds, linearly interpolated inside its bucket.
  double quantile_us(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double acc = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0 && acc + c >= target) {
        const double frac = (target - acc) / c;
        return (lower(i) + frac * width(i)) / 1e3;
      }
      acc += c;
    }
    return lower(counts_.size() - 1) / 1e3;
  }

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr unsigned kMaxMsb = 34;

  static std::size_t index(std::uint64_t ns) noexcept {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    unsigned msb = static_cast<unsigned>(std::bit_width(ns)) - 1;
    if (msb > kMaxMsb) {
      msb = kMaxMsb;
      ns = (std::uint64_t{1} << (kMaxMsb + 1)) - 1;
    }
    const std::uint64_t sub = (ns >> (msb - kSubBits)) & (kSub - 1);
    return (msb - kSubBits + 1) * kSub + static_cast<std::size_t>(sub);
  }
  static double lower(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t msb = i / kSub + kSubBits - 1;
    const std::uint64_t sub = i % kSub;
    return static_cast<double>((std::uint64_t{1} << msb) +
                               (sub << (msb - kSubBits)));
  }
  static double width(std::size_t i) noexcept {
    if (i < kSub) return 1.0;
    return static_cast<double>(std::uint64_t{1} << (i / kSub - 1));
  }

  std::array<std::uint64_t, (kMaxMsb - kSubBits + 2) * kSub> counts_{};
  std::uint64_t total_ = 0;
};

/// Process-wide costs at one instant; differences give per-phase costs.
struct ProcSample {
  double cpu_us = 0.0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t allocs = 0;

  static ProcSample now() noexcept {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcSample s;
    s.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1e6 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    s.ctx_switches =
        static_cast<std::uint64_t>(ru.ru_nvcsw) +
        static_cast<std::uint64_t>(ru.ru_nivcsw);
    s.allocs = allocations();
    return s;
  }
};

/// CPU time the hypervisor stole (time a virtual CPU was runnable but not
/// run) and all CPU time, in jiffies summed over CPUs, from the first line
/// of /proc/stat.  Both stay 0 where that line cannot be read.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;

  static CpuTicks now() noexcept {
    CpuTicks t;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      t.steal = v[7];
      for (unsigned long long x : v) t.total += x;
    }
    std::fclose(f);
    return t;
  }
  /// Share of the CPU time since `earlier` that was stolen.
  double steal_since(const CpuTicks& earlier) const noexcept {
    const std::uint64_t dt = total - earlier.total;
    return dt == 0 ? 0.0 : static_cast<double>(steal - earlier.steal) / dt;
  }
};

/// Peak resident set of this process so far, in MB (10^6 bytes).
inline double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// Threads in this process right now (field 20 of /proc/self/stat).
inline long thread_count() noexcept {
  std::FILE* f = std::fopen("/proc/self/stat", "r");
  if (f == nullptr) return 0;
  char buf[1024] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // The command name (field 2) is parenthesised and may hold spaces, so
  // count fields from the last ')'.
  const char* p = nullptr;
  for (const char* q = buf; *q != '\0'; ++q) {
    if (*q == ')') p = q;
  }
  if (p == nullptr) return 0;
  long value = 0;
  int field = 2;
  for (++p; *p != '\0' && field < 20; ++p) {
    if (*p == ' ') ++field;
  }
  std::sscanf(p, "%ld", &value);
  return value;
}

}  // namespace perfbench
