// The benchmark's three workloads and the deployment they share.
//
// Deployment (identical for every workload): one in-process
// core::ServiceRuntime with 4 storage servers on Backend::kMemory and no
// modeled medium (modeled_disk_mb_s = modeled_op_latency_us = 0), every
// other RuntimeOptions field at its default.  The numbers therefore measure
// the software the stack runs, not a sleep standing in for a disk.
//
// Each workload is a closed loop: one thread (two for metadata) issues its
// next operation only after the previous one returned.  Every thread owns
// its own core::Client.  The workloads reach the stack only through public
// entry points and the slice APIs:
//   checkpoint  LwfsCheckpoint::Run(slices) + RestoreSlices (Figure 8)
//   metadata    Client Create/GetAttr/LinkName/LookupName/TryLock+Unlock/
//               UnlinkName/RemoveObject
//   strided     Dataset::WriteSlabSlice + ReadSlabSlice on LwfsFs
// and every one deletes what it creates, so the last iteration measures
// the same store as the first.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "harness.h"
#include "util/status.h"

namespace perfbench {

inline constexpr double kWindowSeconds = 1.0;
/// Samples per tail block: the tail rule over 3300 samples is their
/// 3290th smallest, p99.70 (README.md, "Tail rule").
inline constexpr std::uint64_t kTailBlock = 3300;

/// Outcome of one closed-loop pass.
struct PassResult {
  /// Per-operation wall latencies, milliseconds.  "write" and "read" are
  /// the workload's two operation classes (see README.md).
  Histogram write_ms;
  Histogram read_ms;
  /// Latency of each timed call by call name, microseconds.
  std::map<std::string, Histogram> call_us;
  /// Checkpoint phase times reported by LwfsCheckpoint::Run, seconds.
  std::vector<double> ckpt_create_s;
  std::vector<double> ckpt_dump_s;
  std::uint64_t units = 0;      // iterations / generations / slabs done
  std::uint64_t ops = 0;        // user-visible operations completed
  std::uint64_t attempted = 0;  // API calls and verifications attempted
  std::uint64_t failed = 0;     // non-OK statuses + byte mismatches
  std::uint64_t write_bytes = 0;  // application bytes per write op
  std::uint64_t read_bytes = 0;   // application bytes per read op
  /// Bytes charged to the bulk-path copy budget (util::CopyStats, staging +
  /// store copies) while write / read ops ran.
  std::uint64_t write_copy_bytes = 0;
  std::uint64_t read_copy_bytes = 0;
  /// Operations completed in each kWindowSeconds window of the pass.
  std::vector<std::uint64_t> window_ops;
  /// Tail of each block of kTailBlock consecutive samples of one thread,
  /// per op class.
  std::vector<double> write_block_tails_ms;
  std::vector<double> read_block_tails_ms;
  double start_s = 0;  // WallSeconds() when the pass began
  double wall_s = 0;
  double cpu_s = 0;  // process CPU (all threads) over the pass
  double rss_growth_bytes = 0;  // resident set at the end minus the start
  lwfs::rpc::ClientStats client_rpc;  // summed over the workload's clients

  /// Count one successful operation of `us` microseconds that ended at
  /// WallSeconds() == `end_s`.
  void Record(const char* call, bool is_write, double end_s, double us);

 private:
  TopSamples write_block_;  // the blocks still filling
  TopSamples read_block_;
};

/// Sizes a workload runs at.  The timed runs use Full(); the VirtualClock
/// count pass uses Small() so it finishes in seconds of wall time.
struct Shape {
  std::uint32_t ranks = 32;
  std::size_t rank_bytes = 16u << 20;
  std::uint64_t rows = 1024, cols = 2048, slab_cols = 64;
  static Shape Full() { return {}; }
  static Shape Small() {
    Shape s;
    s.ranks = 8;
    s.rank_bytes = 1u << 20;
    return s;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Start a deployment on `clock` (nullptr = RealClock), create what the
  /// loop needs and run the untimed warm-up.  May be called again after
  /// Teardown.
  virtual lwfs::Status Setup(lwfs::util::Clock* clock) = 0;
  /// Closed loop until `seconds` of wall time have passed and at least
  /// `min_units` units ran, or until `max_units` units ran.  `tracers`
  /// holds one recorder per client thread, or is empty (untraced).
  virtual PassResult Run(double seconds, std::uint64_t min_units,
                         std::uint64_t max_units,
                         const std::vector<Tracer*>& tracers) = 0;
  /// Delete what Setup created and stop the deployment.
  virtual lwfs::Status Teardown() = 0;

  [[nodiscard]] virtual std::uint32_t threads() const { return 1; }
  [[nodiscard]] lwfs::core::ServiceRuntime& runtime() { return *runtime_; }

 protected:
  std::unique_ptr<lwfs::core::ServiceRuntime> runtime_;
};

/// "checkpoint", "metadata" or "strided"; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, Shape shape);

inline constexpr const char* kWorkloads[] = {"checkpoint", "metadata",
                                             "strided"};

/// Per-layer rungs measured alone, outside any deployment (ladder.cpp).
/// Keyed by per-layer metric name; every failed call adds to `*failed`.
std::map<std::string, double> RunLadder(std::uint64_t seed,
                                        std::uint64_t* failed);

}  // namespace perfbench
