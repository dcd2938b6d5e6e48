// Self-tests of the benchmark's measurement rules.  They run at the start
// of every invocation (a wrong rule must never print a number) and alone
// with --selftest.
#include "selftest.h"

#include <cmath>
#include <cstdio>

#include "harness.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

void TailRule() {
  // 1..n shuffled: the tail is the value with exactly 10 samples above it.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  auto t = TailOf(v);
  Expect(t.has_value(), "tail defined for 100 samples");
  Expect(t && t->value == 90 && Near(t->percentile, 90) && t->samples == 100,
         "tail of 1..100 is 90 at p90");
  v.resize(11);  // 100..90
  t = TailOf(v);
  Expect(t && t->value == 90 && t->samples == 11,
         "tail of 11 samples is the minimum (10 beyond it)");
  v.resize(10);
  Expect(!TailOf(v).has_value(), "no tail with only 10 samples");
  // 1000 samples: p99, with exactly 10 strictly above.
  std::vector<double> w;
  for (int i = 1; i <= 1000; ++i) w.push_back(i);
  t = TailOf(w);
  Expect(t && t->value == 990 && Near(t->percentile, 99), "tail of 1000 is p99");
}

void HistogramMatchesExactRanks() {
  Histogram h;
  std::vector<double> v;
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const double x = 0.01 + static_cast<double>(rng.Below(1000000)) / 1e4;
    h.Add(x);
    v.push_back(x);
  }
  auto close = [](double a, double b) { return std::fabs(a - b) <= 0.002 * b; };
  Expect(h.count() == 5000, "histogram counts every sample");
  Expect(close(h.Median(), Median(v)), "histogram median within 0.2 %");
  auto exact = TailOf(v);
  auto approx = h.TailOf();
  Expect(exact && approx && close(approx->value, exact->value) &&
             approx->percentile == exact->percentile &&
             approx->samples == exact->samples,
         "histogram tail within 0.2 %, same percentile and count");
  TopSamples top;
  for (double x : v) top.Add(x);
  Expect(top.Tail() && exact && *top.Tail() == exact->value,
         "top samples give the exact tail");
  TopSamples few;
  for (int i = 0; i < 10; ++i) few.Add(i);
  Expect(!few.Tail(), "no block tail from 10 samples");
  Histogram a, b;
  for (int i = 1; i <= 50; ++i) (i % 2 ? a : b).Add(i);
  a.Merge(b);
  Expect(a.count() == 50 && a.AtRank(50) == 50 && a.AtRank(1) == 1 &&
             a.Median() == 25.5,
         "merged histograms rank like the union");
}

void MedianRule() {
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle two");
}

void MbPerSecFromWall() {
  Expect(Near(MbPerSec(512u << 20, 0.5), 1073.741824),
         "512 MiB in 0.5 s wall is 1073.74 MB/s (decimal MB)");
  Expect(MbPerSec(1, 0) == 0, "zero wall time gives 0, not inf");
  // Wall time advances while a thread sleeps; CPU time would not.
  const double w0 = WallSeconds();
  lwfs::util::RealClockInstance()->SleepFor(std::chrono::milliseconds(20));
  const double wall = WallSeconds() - w0;
  Expect(wall >= 0.019, "WallSeconds counts a 20 ms sleep");
  Expect(MbPerSec(20'000'000, wall) <= 1000.0 + 1e-6,
         "20 MB over >= 20 ms of wall is <= 1000 MB/s");
}

void VerifierCatchesFlippedByte() {
  lwfs::Buffer want = MakeBytes(7, 1, 4096);
  lwfs::Buffer got = MakeBytes(7, 1, 4096);
  Expect(want == got, "same (seed, stream) gives the same bytes");
  Expect(!FirstMismatch(lwfs::ByteSpan(want), lwfs::ByteSpan(got)),
         "identical buffers verify");
  got[1234] ^= 0x01;
  auto at = FirstMismatch(lwfs::ByteSpan(want), lwfs::ByteSpan(got));
  Expect(at && *at == 1234, "one flipped bit is found at its offset");
  got[1234] ^= 0x01;
  got.pop_back();
  at = FirstMismatch(lwfs::ByteSpan(want), lwfs::ByteSpan(got));
  Expect(at && *at == 4095, "a short read is a mismatch");
  Expect(MakeBytes(7, 2, 64) != MakeBytes(7, 1, 64) &&
             MakeBytes(8, 1, 64) != MakeBytes(7, 1, 64),
         "other streams and seeds give other bytes");
}

void SelfTimeSubtractsChildren() {
  Tracer t(0);
  const std::size_t root = t.Open("root", 1);
  const std::size_t child = t.Open("child", 1);
  t.Close(child);
  t.Close(root);
  auto self = SelfTimesUs({&t});
  const auto& s = t.spans();
  const double root_us = static_cast<double>(s[0].end_ns - s[0].start_ns) / 1e3;
  const double child_us = static_cast<double>(s[1].end_ns - s[1].start_ns) / 1e3;
  Expect(s[1].parent == 0 && s[0].parent == -1, "span parents recorded");
  Expect(self["child"].size() == 1 && Near(self["child"][0], child_us),
         "leaf self time is its duration");
  Expect(self["root"].size() == 1 && Near(self["root"][0], root_us - child_us),
         "parent self time excludes its child");
}

}  // namespace

bool RunSelfTests() {
  g_failures = 0;
  TailRule();
  MedianRule();
  HistogramMatchesExactRanks();
  MbPerSecFromWall();
  VerifierCatchesFlippedByte();
  SelfTimeSubtractsChildren();
  return g_failures == 0;
}

}  // namespace perfbench
