#ifndef GVBENCH_UTIL_H_
#define GVBENCH_UTIL_H_

// Harness utilities shared by every workload: the seeded generator, order
// statistics, the result line, peak memory, and the host-clock span
// recorder of the traced run. Nothing here calls into GridVine.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gvbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host time of the benchmark's measurements: CPU seconds of this process,
/// all threads (user and system). On a shared host it does not advance
/// while the process waits for a CPU, which otherwise dominates the
/// variation of the two-thread `scale` workload.
inline double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// Host seconds since construction, on the CpuNow() clock.
class CpuTimer {
 public:
  double Seconds() const { return CpuNow() - t0_; }

 private:
  double t0_ = CpuNow();
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// splitmix64: the benchmark's own generator, so the inputs of a seed do
/// not move when the program's Rng or the standard library changes.
class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n) { return size_t(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }
  bool Bernoulli(double p) { return Unit() < p; }
  double Exponential(double rate) { return -std::log1p(-Unit()) / rate; }

 private:
  uint64_t state_;
};

/// Inverse-CDF Zipf sampler over ranks [0, n): P(k) ∝ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(double(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(SeqRng* rng) const {
    double u = rng->Unit();
    size_t k = size_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                      cdf_.begin());
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The host-rate estimator of every workload: the 10th percentile (nearest
/// rank) of the per-slice rates of one timed phase. On a shared host the
/// slice rates alternate between a steady floor and faster spells of
/// varying height and length; a low percentile tracks the floor, which
/// repeats from run to run, where the median moves with the spells.
inline double FloorRate(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 10];
}

/// The set-up time estimator: the median of the run's set-up times.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of a sorted sample (p in (0, 1]).
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = size_t(std::ceil(p * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Peak resident set of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main: the result-line fields plus a
/// human-readable table printed above it.
struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Result-line number: every digit of the double, never NaN/Inf.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Host spans (traced run only) -----------------------------------------

/// Host-clock spans around the benchmark's calls into the program. Kept in
/// memory, written once at the end. Single-threaded: the parent of a span is
/// whichever span was open when it started.
class HostSpans {
 public:
  struct Span {
    const char* name;
    const char* layer;
    int32_t parent;
    double start_us;
    double end_us;
  };

  explicit HostSpans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  int Open(const char* name, const char* layer) {
    if (!enabled_) return -1;
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, layer, parent, NowUs(), -1});
    open_.push_back(int(spans_.size() - 1));
    return open_.back();
  }
  void Close(int idx) {
    if (idx < 0) return;
    spans_[size_t(idx)].end_us = NowUs();
    open_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(HostSpans* s, const char* name, const char* layer)
        : s_(s), idx_(s->Open(name, layer)) {}
    ~Scope() { s_->Close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostSpans* s_;
    int idx_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus the time its direct children cover) summed per
  /// layer, over the subtree of `root` (every span when root < 0).
  std::map<std::string, double> SelfSecondsByLayer(int root = -1) const {
    std::vector<double> child_us(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[size_t(s.parent)] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (root >= 0 && !Within(int(i), root)) continue;
      const Span& s = spans_[i];
      out[s.layer] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
    }
    return out;
  }

  /// Chrome trace_event JSON ("X" complete events; tid 1).
  bool WriteChrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i ? "," : "", s.name, s.layer, s.start_us,
                   s.end_us - s.start_us, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  bool Within(int i, int root) const {
    while (i >= 0) {
      if (i == root) return true;
      i = spans_[size_t(i)].parent;
    }
    return false;
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace gvbench

#endif  // GVBENCH_UTIL_H_
