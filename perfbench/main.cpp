// lwfs_perfbench: the repository benchmark.  See README.md in this
// directory for the workloads, the metrics and how to read the trace.
//
//   lwfs_perfbench --workload <checkpoint|metadata|strided> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-file <path>]
//   lwfs_perfbench --selftest
//   lwfs_perfbench --spin
//
// --trace 0 prints the end-to-end metrics of one untraced timed run.
// --trace 1 prints the per-layer metrics: the layer ladder, a traced pass of
// every workload (the named one for --seconds, the others briefly), and the
// VirtualClock count pass run twice per workload.  The last stdout line is
// always one JSON object; the exit code is 0 only when every output was
// verified and nothing failed.
#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();
/// Every op class needs more than kTailBeyond samples for its tail.
constexpr std::uint64_t kMinUnits = kTailBeyond + 1;
/// Setups per timed run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  bool selftest = false;
  bool spin = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest" || k == "--spin") {
      (k == "--spin" ? a->spin : a->selftest) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-file") {
      a->trace_file = v;
    } else {
      return false;
    }
  }
  return a->selftest || a->spin || (!a->workload.empty() && a->seconds > 0);
}

/// Metrics in output order, with units.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;
  void Add(const std::string& name, double value, const std::string& unit) {
    rows.push_back({name, {value, unit}});
  }
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < m.rows.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.rows[i].first.c_str(),
                m.rows[i].second.first, m.rows[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The tail of one op class: the median over blocks of kTailBlock samples
/// of each block's tail once the pass has at least 10 blocks, else the tail
/// rule over the whole pass.  Echoed on stdout with its basis.
double TailMs(const std::string& label, const Histogram& ms,
              const std::vector<double>& block_tails) {
  auto tail = ms.TailOf();
  if (!tail) {
    std::printf("%s: only %llu samples, no tail; reporting the maximum\n",
                label.c_str(), static_cast<unsigned long long>(ms.count()));
    return ms.AtRank(ms.count());
  }
  std::printf("%s over the pass = %.4f ms at p%.3f of %zu samples\n",
              label.c_str(), tail->value, tail->percentile, tail->samples);
  if (block_tails.size() < 10) return tail->value;
  const double median = Median(block_tails);
  std::printf("%s = %.4f ms: median over %zu blocks of %llu samples of each "
              "block's p%.2f\n",
              label.c_str(), median, block_tails.size(),
              static_cast<unsigned long long>(kTailBlock),
              100.0 * static_cast<double>(kTailBlock - kTailBeyond) /
                  static_cast<double>(kTailBlock));
  return median;
}

/// Completed operations per second.  When the pass's kWindowSeconds
/// windows resolve a rate (more than 10 of them, averaging at least 100
/// operations each), the median window rate, which a stall confined to a
/// few windows cannot move; else all operations over the wall time.
double OpsPerSecond(const PassResult& r) {
  constexpr std::uint64_t kMinPerWindow = 100;
  if (r.window_ops.size() > 10 &&
      r.ops >= kMinPerWindow * r.window_ops.size()) {
    // The last window is partial.
    std::vector<double> rates(r.window_ops.begin(), r.window_ops.end() - 1);
    for (double& v : rates) v /= kWindowSeconds;
    return Median(std::move(rates));
  }
  return r.wall_s > 0 ? static_cast<double>(r.ops) / r.wall_s : 0;
}

/// --spin: keep one CPU busy at SCHED_IDLE priority until killed.  run.py
/// starts one per CPU for the length of a run (README.md, "Idle
/// spinners").  Exits at once when SCHED_IDLE is refused, so it never
/// competes with the program at normal priority.  The loop has no PAUSE:
/// a hypervisor reads a PAUSE loop as lock spinning and deschedules the
/// virtual CPU, which is what the spinner is there to prevent.
int Spin() {
  sched_param param{};
  if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return 0;
  volatile std::uint64_t spins = 0;
  for (;;) spins = spins + 1;
}

// ---- --trace 0 ------------------------------------------------------------

int TimedRun(const Args& a) {
  auto w = MakeWorkload(a.workload, a.seed, Shape::Full());
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = WallSeconds();
    lwfs::Status s = w->Setup(nullptr);
    setups.push_back(WallSeconds() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (k + 1 < kSetups && !(s = w->Teardown()).ok()) {
      std::fprintf(stderr, "perfbench: teardown failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  const double setup_peak_rss_mb = PeakRssMb();
  PassResult r = w->Run(a.seconds, kMinUnits, kNoLimit, {});
  ++r.attempted;
  if (lwfs::Status s = w->Teardown(); !s.ok()) {
    ++r.failed;
    std::fprintf(stderr, "perfbench: teardown failed: %s\n",
                 s.ToString().c_str());
  }

  Metrics m;
  m.Add("setup_s", Median(setups), "s");
  m.Add("setup_peak_rss_mb", setup_peak_rss_mb, "MB");
  const double write_p50 = r.write_ms.Median();
  const double read_p50 = r.read_ms.Median();
  m.Add("write_ms_p50", write_p50, "ms");
  m.Add("write_ms_tail",
        TailMs("write_ms_tail", r.write_ms, r.write_block_tails_ms), "ms");
  m.Add("read_ms_p50", read_p50, "ms");
  m.Add("read_ms_tail",
        TailMs("read_ms_tail", r.read_ms, r.read_block_tails_ms), "ms");
  const double ops_s = OpsPerSecond(r);
  m.Add("ops_s", ops_s, "1/s");

  // The same numbers under the workload's own names.
  const double fail_ratio = r.attempted == 0
                                ? 0
                                : static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted);
  std::printf("%s: %" PRIu64 " units, %" PRIu64 " ops in %.3f s wall\n",
              a.workload.c_str(), r.units, r.ops, r.wall_s);
  std::printf("peak_rss_mb = %.4f MB (whole run; resident set grew %.0f B per op in the timed window)\n",
              PeakRssMb(), r.rss_growth_bytes / static_cast<double>(r.ops));
  std::printf("op_fail_ratio = %.6g (%" PRIu64 "/%" PRIu64 ")\n", fail_ratio,
              r.failed, r.attempted);
  if (a.workload == "checkpoint" || a.workload == "strided") {
    const char* p = a.workload == "checkpoint" ? "ckpt" : "slab";
    const char* rd = a.workload == "checkpoint" ? "restore" : "read";
    std::printf("%s_write_mb_s = %.4f MB/s\n", p,
                MbPerSec(r.write_bytes, write_p50 / 1e3));
    std::printf("%s_%s_mb_s = %.4f MB/s\n", p, rd,
                MbPerSec(r.read_bytes, read_p50 / 1e3));
  } else {
    Histogram all;
    for (const auto& [call, us] : r.call_us) all.Merge(us);
    std::printf("meta_ops_s = %.4f 1/s\n", ops_s);
    std::printf("meta_op_us_p50 = %.4f us\n", all.Median());
    auto tail = all.TailOf();
    if (tail) {
      std::printf("meta_op_us_tail = %.4f us at p%.2f of %zu samples\n",
                  tail->value, tail->percentile, tail->samples);
    }
  }
  const bool correct = r.failed == 0;
  PrintResult(correct, r.attempted, r.failed, m);
  return correct ? 0 : 1;
}

// ---- --trace 1 -------------------------------------------------------------

/// Counter snapshot of a deployment, read from what the stack exports.
struct Counters {
  std::vector<lwfs::rpc::OpStats> ops;
  lwfs::core::ServiceRuntime::RobustnessStats robustness;
  lwfs::portals::FabricStats fabric;
  lwfs::core::IoSchedulerStats sched;

  static Counters Read(lwfs::core::ServiceRuntime& rt) {
    return {rt.TotalOpStats(), rt.TotalRobustnessStats(), rt.fabric().Stats(),
            rt.TotalSchedStats()};
  }
};

/// Calls and summed handler latency per server op ("<service>.<op>")
/// between two snapshots.
std::map<std::string, lwfs::rpc::OpStats> OpDeltas(const Counters& before,
                                                   const Counters& after) {
  std::map<std::string, lwfs::rpc::OpStats> out;
  for (const auto& op : after.ops) out[op.name] = op;
  for (const auto& op : before.ops) {
    auto& d = out[op.name];
    d.calls -= op.calls;
    d.latency_us_total -= op.latency_us_total;
  }
  return out;
}

/// Server calls of ops whose name starts with `prefix` (all ops for "").
std::uint64_t CallsMatching(const std::map<std::string, lwfs::rpc::OpStats>& d,
                            const std::string& prefix) {
  std::uint64_t n = 0;
  for (const auto& [name, op] : d) {
    if (name.rfind(prefix, 0) == 0) n += op.calls;
  }
  return n;
}

struct TracedPass {
  PassResult untraced;
  PassResult traced;
  std::map<std::string, lwfs::rpc::OpStats> ops;  // over the traced pass
  Counters before, after;
};

/// An untraced, then a traced pass of one workload on a fresh deployment.
lwfs::Status RunTracedPass(const std::string& name, std::uint64_t seed,
                           double seconds, std::uint64_t units,
                           std::vector<std::unique_ptr<Tracer>>* tracers,
                           TracedPass* out) {
  auto w = MakeWorkload(name, seed, Shape::Full());
  LWFS_RETURN_IF_ERROR(w->Setup(nullptr));
  out->untraced = w->Run(seconds, units, kNoLimit, {});
  std::vector<Tracer*> mine;
  for (std::uint32_t t = 0; t < w->threads(); ++t) {
    tracers->push_back(
        std::make_unique<Tracer>(static_cast<std::uint32_t>(tracers->size())));
    mine.push_back(tracers->back().get());
  }
  out->before = Counters::Read(w->runtime());
  out->traced = w->Run(seconds, units, kNoLimit, mine);
  out->after = Counters::Read(w->runtime());
  out->ops = OpDeltas(out->before, out->after);
  return w->Teardown();
}

/// Units each workload runs per pass when it is not the named workload of
/// a traced run.
std::uint64_t ShortUnits(const std::string& name) {
  return name == "metadata" ? 2000 : 4;
}

/// Units each workload runs in the VirtualClock count pass.
std::uint64_t CountUnits(const std::string& name) {
  return name == "metadata" ? 100 : 2;
}

/// One VirtualClock pass (Shape::Small, fixed units): counts per unit.
lwfs::Status CountPass(const std::string& name, std::uint64_t seed,
                       std::map<std::string, double>* counts) {
  lwfs::util::VirtualClock clock;
  lwfs::util::Clock::ThreadGuard guard(&clock);
  auto w = MakeWorkload(name, seed, Shape::Small());
  LWFS_RETURN_IF_ERROR(w->Setup(&clock));
  w->runtime().ResetSchedStats();
  const Counters before = Counters::Read(w->runtime());
  const std::uint64_t units = CountUnits(name);
  PassResult r =
      w->Run(std::numeric_limits<double>::infinity(), units, units, {});
  const Counters after = Counters::Read(w->runtime());
  LWFS_RETURN_IF_ERROR(w->Teardown());
  if (r.failed != 0 || r.units != units) {
    return lwfs::Internal("count pass failed");
  }
  const auto ops = OpDeltas(before, after);
  const double n = static_cast<double>(r.units);
  auto& c = *counts;
  c["rpc_calls"] = static_cast<double>(CallsMatching(ops, "")) / n;
  c["lock_calls"] = static_cast<double>(CallsMatching(ops, "lock.")) / n;
  c["fabric_puts"] = static_cast<double>(after.fabric.puts - before.fabric.puts) / n;
  c["fabric_gets"] = static_cast<double>(after.fabric.gets - before.fabric.gets) / n;
  c["fabric_put_bytes"] =
      static_cast<double>(after.fabric.put_bytes - before.fabric.put_bytes) / n;
  c["fabric_get_bytes"] =
      static_cast<double>(after.fabric.get_bytes - before.fabric.get_bytes) / n;
  c["sched_requests"] = static_cast<double>(after.sched.requests) / n;
  c["sched_runs"] = static_cast<double>(after.sched.runs) / n;
  c["sched_merges"] = static_cast<double>(after.sched.merges) / n;
  c["sched_queue_hwm"] = static_cast<double>(after.sched.queue_depth_hwm);
  auto per_byte = [](std::uint64_t copied, std::uint64_t bytes) {
    return bytes == 0 ? 0.0
                      : static_cast<double>(copied) / static_cast<double>(bytes);
  };
  const std::uint64_t writes = r.write_ms.count();
  const std::uint64_t reads = r.read_ms.count();
  c["copies_per_byte_write"] =
      per_byte(r.write_copy_bytes, writes * r.write_bytes);
  c["copies_per_byte_read"] = per_byte(r.read_copy_bytes, reads * r.read_bytes);
  return lwfs::OkStatus();
}

/// The unit each workload's counts are normalised by.
const char* UnitOf(const std::string& name) {
  return name == "checkpoint" ? "gen" : name == "metadata" ? "iter" : "slab";
}

/// Metadata calls, and the server ops whose handler time each one pays.
const std::vector<std::pair<const char*, std::vector<const char*>>>&
MetaCalls() {
  static const std::vector<std::pair<const char*, std::vector<const char*>>>
      calls = {{"create", {"storage.obj_create"}},
               {"getattr", {"storage.obj_getattr"}},
               {"link", {"naming.name_link"}},
               {"lookup", {"naming.name_lookup"}},
               {"lock_unlock", {"lock.lock_try", "lock.lock_release"}},
               {"unlink", {"naming.name_unlink"}},
               {"remove", {"storage.obj_remove"}}};
  return calls;
}

/// Spans whose self time is reported (metadata's leaf client calls are
/// reported as core.client.*_us_p50 instead).
constexpr const char* kSelfTimeSpans[] = {
    "ckpt.generation", "ckpt.container",  "checkpoint.run",
    "checkpoint.restore", "ckpt.verify",  "ckpt.cleanup",
    "meta.iter",        "slab.iter",      "slab.generate",
    "dataset.write_slab", "dataset.read_slab", "slab.verify"};

int TracedRun(const Args& a) {
  Metrics m;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto note = [&](const lwfs::Status& s, const std::string& what) {
    ++attempted;
    if (s.ok()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 s.ToString().c_str());
  };

  // 1. The ladder: each layer alone.
  std::uint64_t ladder_failed = 0;
  for (const auto& [name, v] : RunLadder(a.seed, &ladder_failed)) {
    m.Add(name, v, name.find("mb_s") != std::string::npos ? "MB/s" : "us");
  }
  note(ladder_failed == 0 ? lwfs::OkStatus()
                          : lwfs::Internal(std::to_string(ladder_failed) +
                                           " ladder calls failed"),
       "ladder");

  // 2. Each workload untraced, then traced, on RealClock.  The named
  // workload gets the run's time; the others a short pass, so every
  // per-layer metric is present whatever the workload.
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::map<std::string, TracedPass> passes;
  for (const std::string name : kWorkloads) {
    const bool main_workload = name == a.workload;
    TracedPass& p = passes[name];
    note(RunTracedPass(name, a.seed, main_workload ? a.seconds / 2 : 0,
                       main_workload ? kMinUnits : ShortUnits(name),
                       &tracers, &p),
         name + " traced pass");
    attempted += p.untraced.attempted + p.traced.attempted;
    failed += p.untraced.failed + p.traced.failed;
  }

  const TracedPass& meta = passes["metadata"];
  for (const auto& [call, server_ops] : MetaCalls()) {
    const auto it = meta.traced.call_us.find(call);
    const Histogram none;
    const Histogram& us = it == meta.traced.call_us.end() ? none : it->second;
    m.Add(std::string("core.client.") + call + "_us_p50", us.Median(), "us");
    // Gap: client-observed mean minus the handler's own mean, i.e. the
    // time spent in portals, RPC framing and thread handoffs.
    const double client_mean = us.mean();
    double handler_mean = 0;
    for (const char* op : server_ops) {
      const auto h = meta.ops.find(op);
      if (h == meta.ops.end() || h->second.calls == 0) {
        note(lwfs::NotFound(std::string("no calls of server op ") + op),
             "rpc gap");
        continue;
      }
      handler_mean += static_cast<double>(h->second.latency_us_total) /
                      static_cast<double>(h->second.calls);
    }
    m.Add(std::string("rpc.gap_us.") + call, client_mean - handler_mean, "us");
  }
  for (const std::string name : kWorkloads) {
    const TracedPass& p = passes[name];
    m.Add("process.rss_growth_b_per_op." + name,
          p.traced.ops == 0 ? 0
                            : p.traced.rss_growth_bytes /
                                  static_cast<double>(p.traced.ops),
          "B/op");
  }
  m.Add("process.cpu_us_per_meta_op",
        meta.untraced.ops == 0 ? 0
                               : meta.untraced.cpu_s * 1e6 /
                                     static_cast<double>(meta.untraced.ops),
        "us");

  const TracedPass& ckpt = passes["checkpoint"];
  m.Add("checkpoint.create_s", Median(ckpt.traced.ckpt_create_s), "s");
  m.Add("checkpoint.dump_s", Median(ckpt.traced.ckpt_dump_s), "s");
  m.Add("portals.get_bytes",
        ckpt.traced.units == 0
            ? 0
            : static_cast<double>(ckpt.after.fabric.get_bytes -
                                  ckpt.before.fabric.get_bytes) /
                  static_cast<double>(ckpt.traced.units),
        "B/gen");

  // 3. Health: all must read 0 on a healthy stack (rpc.served excepted).
  std::uint64_t served = 0, dedup = 0, crc = 0;
  lwfs::rpc::ClientStats client{};
  for (const auto& [name, p] : passes) {
    served += p.after.robustness.rpc.served - p.before.robustness.rpc.served;
    dedup +=
        p.after.robustness.rpc.dedup_hits - p.before.robustness.rpc.dedup_hits;
    crc += p.after.robustness.rpc.crc_drops - p.before.robustness.rpc.crc_drops;
    client.retransmits += p.traced.client_rpc.retransmits;
    client.resends += p.traced.client_rpc.resends;
    client.failures += p.traced.client_rpc.failures;
  }
  m.Add("rpc.served", static_cast<double>(served), "count");
  m.Add("rpc.dedup_hits", static_cast<double>(dedup), "count");
  m.Add("rpc.crc_drops", static_cast<double>(crc), "count");
  m.Add("rpc.client.retransmits", static_cast<double>(client.retransmits),
        "count");
  m.Add("rpc.client.resends", static_cast<double>(client.resends), "count");
  m.Add("rpc.client.failures", static_cast<double>(client.failures), "count");

  // 4. Tracing: overhead (traced minus untraced write p50), self times, and
  // the span file.
  std::size_t span_count = 0;
  std::vector<const Tracer*> all;
  for (const auto& t : tracers) {
    all.push_back(t.get());
    span_count += t->spans().size();
  }
  for (const std::string name : kWorkloads) {
    const TracedPass& p = passes[name];
    const double base = p.untraced.write_ms.Median();
    m.Add("trace.overhead_pct." + name,
          base > 0 ? (p.traced.write_ms.Median() - base) / base * 100 : 0, "%");
  }
  auto self = SelfTimesUs(all);
  for (const char* span : kSelfTimeSpans) {
    m.Add(std::string("trace.self_us_p50.") + span, Median(self[span]), "us");
  }
  m.Add("trace.spans", static_cast<double>(span_count), "count");
  if (!a.trace_file.empty()) {
    note(WriteSpans(a.trace_file, all)
             ? lwfs::OkStatus()
             : lwfs::Internal("cannot write " + a.trace_file),
         "span file");
    std::printf("spans: %zu written to %s\n", span_count,
                a.trace_file.c_str());
  }

  // 5. Exact counts on VirtualClock, twice per workload with the same seed.
  bool identical = true;
  for (const std::string name : kWorkloads) {
    std::map<std::string, double> first, second;
    note(CountPass(name, a.seed, &first), name + " count pass");
    note(CountPass(name, a.seed, &second), name + " count pass (repeat)");
    if (first != second) {
      identical = false;
      note(lwfs::Internal("counts differ between same-seed runs"),
           name + " count determinism");
    }
    const std::string unit = UnitOf(name);
    for (const auto& [what, v] : first) {
      const bool per_byte = what.rfind("copies_per_byte", 0) == 0;
      const bool hwm = what == "sched_queue_hwm";
      const bool bytes = what.find("bytes") != std::string::npos && !per_byte;
      m.Add("count." + name + "." + what, v,
            per_byte ? "copies/B"
                     : hwm ? "count"
                           : (bytes ? "B/" : "count/") + unit);
    }
    // The same counts under the names the layer map uses.
    if (name == "strided") {
      m.Add("libio.rpc_calls_per_slab", first["rpc_calls"], "count/slab");
      m.Add("lwfsfs.lock_calls_per_slab", first["lock_calls"], "count/slab");
      m.Add("core.io_scheduler.requests", first["sched_requests"], "count/slab");
      m.Add("core.io_scheduler.runs", first["sched_runs"], "count/slab");
      m.Add("core.io_scheduler.merges", first["sched_merges"], "count/slab");
      m.Add("core.io_scheduler.queue_hwm", first["sched_queue_hwm"], "count");
    }
    if (name == "checkpoint") {
      m.Add("util.copies_per_byte_write", first["copies_per_byte_write"],
            "copies/B");
      m.Add("util.copies_per_byte_read", first["copies_per_byte_read"],
            "copies/B");
    }
  }
  m.Add("count.identical", identical ? 1 : 0, "bool");
  m.Add("op_fail_ratio",
        attempted == 0 ? 0
                       : static_cast<double>(failed) /
                             static_cast<double>(attempted),
        "ratio");

  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lwfs_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file <path>]\n"
                 "       lwfs_perfbench --selftest\n"
                 "       lwfs_perfbench --spin\n");
    return 2;
  }
  if (args.spin) return perfbench::Spin();
  if (!perfbench::RunSelfTests()) return 1;
  if (args.selftest) return 0;
  bool known = false;
  for (const char* w : perfbench::kWorkloads) known |= args.workload == w;
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::TracedRun(args) : perfbench::TimedRun(args);
}
