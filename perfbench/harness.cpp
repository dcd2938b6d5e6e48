#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>

namespace perfbench {

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return r.Next();
}

lwfs::Buffer MakeBytes(std::uint64_t seed, std::uint64_t stream,
                       std::size_t n) {
  lwfs::Buffer b(n);
  Rng r(StreamSeed(seed, stream));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = r.Next();
    std::memcpy(b.data() + i, &v, 8);
  }
  if (i < n) {
    const std::uint64_t v = r.Next();
    std::memcpy(b.data() + i, &v, n - i);
  }
  return b;
}

std::optional<std::size_t> FirstMismatch(lwfs::ByteSpan want,
                                         lwfs::ByteSpan got) {
  const std::size_t n = std::min(want.size(), got.size());
  if (std::memcmp(want.data(), got.data(), n) != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (want[i] != got[i]) return i;
    }
  }
  if (want.size() != got.size()) return n;
  return std::nullopt;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

std::optional<Tail> TailOf(std::vector<double> v) {
  if (v.size() <= kTailBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = n - kTailBeyond;  // 1-based
  return Tail{v[rank - 1],
              100.0 * static_cast<double>(rank) / static_cast<double>(n), n};
}

Histogram::Histogram() : counts_(kBuckets, 0), sums_(kBuckets, 0) {}

void Histogram::Add(double v) {
  std::size_t i = 0;
  if (v > kLo) {
    i = std::min(kBuckets - 1,
                 static_cast<std::size_t>(std::log(v / kLo) / std::log(kRatio)));
  }
  ++counts_[i];
  sums_[i] += v;
  ++n_;
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts_[i] += other.counts_[i];
    sums_[i] += other.sums_[i];
  }
  n_ += other.n_;
  sum_ += other.sum_;
}

double Histogram::AtRank(std::uint64_t rank) const {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (counts_[i] != 0 && seen >= rank) {
      return sums_[i] / static_cast<double>(counts_[i]);
    }
  }
  return 0;
}

double Histogram::Median() const {
  if (n_ == 0) return 0;
  if (n_ % 2 == 1) return AtRank(n_ / 2 + 1);
  return (AtRank(n_ / 2) + AtRank(n_ / 2 + 1)) / 2;
}

std::optional<Tail> Histogram::TailOf() const {
  if (n_ <= kTailBeyond) return std::nullopt;
  const std::uint64_t rank = n_ - kTailBeyond;
  return Tail{AtRank(rank),
              100.0 * static_cast<double>(rank) / static_cast<double>(n_),
              static_cast<std::size_t>(n_)};
}

void TopSamples::Add(double v) {
  ++n_;
  const auto greater = std::greater<double>();
  if (largest_.size() <= kTailBeyond) {
    largest_.push_back(v);
    std::push_heap(largest_.begin(), largest_.end(), greater);
  } else if (v > largest_.front()) {
    std::pop_heap(largest_.begin(), largest_.end(), greater);
    largest_.back() = v;
    std::push_heap(largest_.begin(), largest_.end(), greater);
  }
}

std::optional<double> TopSamples::Tail() const {
  if (n_ <= kTailBeyond) return std::nullopt;
  return largest_.front();
}

double MbPerSec(std::uint64_t bytes, double wall_seconds) {
  return wall_seconds > 0 ? static_cast<double>(bytes) / 1e6 / wall_seconds
                          : 0;
}

double WallSeconds() {
  // Relative to the first call: the clock's epoch-anchored reading is
  // ~1.7e9 s, where a double's resolution is only ~0.24 us.
  static const std::int64_t origin =
      lwfs::util::RealClockInstance()->Now().count();
  return static_cast<double>(lwfs::util::RealClockInstance()->Now().count() -
                             origin) /
         1e9;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::size_t Tracer::Open(const char* name, std::uint64_t key) {
  Span s;
  s.name = name;
  s.key = key;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = lwfs::util::RealClockInstance()->Now().count();
  spans_.push_back(s);
  stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void Tracer::Close(std::size_t index) {
  spans_[index].end_ns = lwfs::util::RealClockInstance()->Now().count();
  if (!stack_.empty()) stack_.pop_back();
}

std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, std::vector<double>> out;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::int64_t self =
          spans[i].end_ns - spans[i].start_ns - child_ns[i];
      out[spans[i].name].push_back(static_cast<double>(self) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << "{\"thread\":" << t->thread() << ",\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"key\":" << s.key << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
