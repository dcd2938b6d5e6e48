// Measurement helpers shared by every workload of the benchmark: seeded
// input generation, byte-exact verification, latency summaries (median and
// the tail rule), wall-time throughput, and an in-memory span recorder.
//
// Everything here is pure or owns only benchmark memory, so selftest.cpp
// can pin it down without standing up a deployment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/clock.h"

namespace perfbench {

// ---- Inputs ----------------------------------------------------------------

/// splitmix64: the benchmark's only source of randomness.  Every generated
/// input (rank states, slab blocks, target servers, paths) derives from the
/// run's --seed through one of these, so a seed names its inputs exactly.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (x_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t x_;
};

/// Stream id mixing: distinct (seed, stream) pairs give unrelated streams.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// `n` bytes of the stream (seed, stream).  Deterministic.
lwfs::Buffer MakeBytes(std::uint64_t seed, std::uint64_t stream,
                       std::size_t n);

// ---- Verification ------------------------------------------------------------

/// Index of the first byte where `got` differs from `want`, or nullopt when
/// they are identical (a length difference counts as a mismatch at the
/// shorter length).
std::optional<std::size_t> FirstMismatch(lwfs::ByteSpan want,
                                         lwfs::ByteSpan got);

// ---- Summaries -----------------------------------------------------------------

/// Median (mean of the middle two for even counts); 0 for no samples.
double Median(std::vector<double> v);

/// The tail rule: the highest percentile that still has at least
/// `kTailBeyond` samples strictly above it.  With n sorted samples that is
/// the value at rank n - kTailBeyond (1-based), i.e. percentile
/// 100 * (n - kTailBeyond) / n.  Undefined below kTailBeyond + 1 samples.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
std::optional<Tail> TailOf(std::vector<double> v);

/// Latency record with a fixed memory bound, so the benchmark's own
/// footprint does not grow with throughput (peak_rss_mb is the program's).
/// Bucket i holds samples in [kLo * kRatio^i, kLo * kRatio^(i+1)); a rank
/// query returns the mean of the samples in the bucket holding that rank,
/// i.e. a measured value to within 0.2 %, never a bucket edge.
class Histogram {
 public:
  static constexpr double kLo = 1e-5;  // in the caller's unit (ms: 10 ns)
  static constexpr double kRatio = 1.002;
  static constexpr std::size_t kBuckets = 12700;  // kLo * kRatio^k ~ 1e6

  Histogram();
  void Add(double v);
  void Merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0 : sum_ / n_; }
  /// The `rank`-th smallest sample (1-based), as described above.
  [[nodiscard]] double AtRank(std::uint64_t rank) const;
  /// Median (mean of the middle two ranks for even counts); 0 when empty.
  [[nodiscard]] double Median() const;
  /// The tail rule (see TailOf above) over the recorded samples.
  [[nodiscard]] std::optional<Tail> TailOf() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
};

/// The tail rule needs only the kTailBeyond + 1 largest samples and the
/// count, so a block of samples keeps just those: exact and tiny.
class TopSamples {
 public:
  void Add(double v);
  [[nodiscard]] std::uint64_t count() const { return n_; }
  /// The tail rule's value, the (kTailBeyond + 1)-th largest sample;
  /// nullopt with kTailBeyond samples or fewer.
  [[nodiscard]] std::optional<double> Tail() const;

 private:
  std::uint64_t n_ = 0;
  std::vector<double> largest_;  // min-heap of at most kTailBeyond + 1
};

/// Decimal megabytes per wall second (the unit the repo's benches use).
double MbPerSec(std::uint64_t bytes, double wall_seconds);

// ---- Timing ---------------------------------------------------------------------

/// Wall seconds on the process RealClock (all end-to-end numbers come from
/// here; thread CPU time is never used for them).
double WallSeconds();

/// Process CPU seconds (user + system, every thread) from getrusage.
double ProcessCpuSeconds();

/// Peak resident set of the process so far, MB (getrusage ru_maxrss).
double PeakRssMb();

/// Current resident set of the process, bytes (/proc/self/statm).
double CurrentRssBytes();

// ---- Tracing ---------------------------------------------------------------------

/// One recorded span.  `parent` indexes the same thread's span vector (-1 =
/// root); `key` groups the spans of one request (workload iteration).
struct Span {
  const char* name = "";
  std::uint64_t key = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span recorder.  Spans live in memory until the run writes
/// them out; a null Tracer* means tracing is off and costs one branch.
class Tracer {
 public:
  explicit Tracer(std::uint32_t thread) : thread_(thread) {}
  std::size_t Open(const char* name, std::uint64_t key);
  void Close(std::size_t index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t thread() const { return thread_; }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span; no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t key)
      : tracer_(tracer), index_(tracer ? tracer->Open(name, key) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Self time of every span: its duration minus the part of that interval
/// its children cover (children run nested on the same thread, so their
/// intervals never overlap one another).  Result keyed by span name, one
/// sample (microseconds) per span.
std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::vector<const Tracer*>& tracers);

/// Write every span as one JSON object per line.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
