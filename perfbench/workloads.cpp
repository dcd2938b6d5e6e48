#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <thread>

#include "checkpoint/checkpoint.h"
#include "libio/dataset.h"
#include "lwfsfs/lwfsfs.h"

namespace perfbench {

using lwfs::OkStatus;
using lwfs::Result;
using lwfs::Status;
using lwfs::util::SharedSlice;

void PassResult::Record(const char* call, bool is_write, double end_s,
                        double us) {
  call_us[call].Add(us);
  const double ms = us / 1e3;
  (is_write ? write_ms : read_ms).Add(ms);
  ++ops;
  const auto w = static_cast<std::size_t>((end_s - start_s) / kWindowSeconds);
  if (window_ops.size() <= w) window_ops.resize(w + 1, 0);
  ++window_ops[w];
  TopSamples& block = is_write ? write_block_ : read_block_;
  block.Add(ms);
  if (block.count() == kTailBlock) {
    (is_write ? write_block_tails_ms : read_block_tails_ms)
        .push_back(*block.Tail());
    block = TopSamples();
  }
}

namespace {

const Status& StatusOf(const Status& s) { return s; }
template <class T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

/// Counts every attempted call and every failure of one pass.  The first
/// few failures go to stderr; none is ever dropped from the counts.
struct Ledger {
  PassResult* r;

  template <class R>
  bool Ok(const R& res, const char* what) {
    ++r->attempted;
    if (res.ok()) return true;
    Fail(what, StatusOf(res).ToString());
    return false;
  }
  /// A verification of an operation already counted as attempted.
  void Verify(bool match, const char* what) {
    if (!match) Fail(what, "mismatch");
  }
  void Fail(const char* what, const std::string& why) {
    if (++r->failed <= 5) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what, why.c_str());
    }
  }
};

/// Time one call as a user-visible operation of class write/read.
template <class F>
auto TimedOp(PassResult& r, Tracer* tr, std::uint64_t key, const char* call,
             bool is_write, F&& fn) {
  ScopedSpan span(tr, call, key);
  const lwfs::util::CopySnapshot copies = lwfs::util::CopyStats::Snapshot();
  const double a = WallSeconds();
  auto res = fn();
  const double b = WallSeconds();
  (is_write ? r.write_copy_bytes : r.read_copy_bytes) +=
      lwfs::util::CopyStats::Snapshot().Since(copies).budget_bytes();
  if (Ledger{&r}.Ok(res, call)) r.Record(call, is_write, b, (b - a) * 1e6);
  return res;
}

void AddClientStats(lwfs::rpc::ClientStats& into,
                    const lwfs::rpc::ClientStats& s) {
  into.calls += s.calls;
  into.resends += s.resends;
  into.failures += s.failures;
  into.retransmits += s.retransmits;
  into.crc_rejects += s.crc_rejects;
  into.bulk_crc_failures += s.bulk_crc_failures;
  into.breaker_opens += s.breaker_opens;
  into.breaker_fast_fails += s.breaker_fast_fails;
}

/// Run `unit` in a closed loop until `seconds` of wall time have passed and
/// at least `min_units` units ran, or until `max_units` units ran.  Fills
/// the pass-wide wall, process CPU and resident-set fields.
template <class F>
PassResult ClosedLoop(double seconds, std::uint64_t min_units,
                      std::uint64_t max_units, F&& unit) {
  PassResult r;
  const double c0 = ProcessCpuSeconds();
  const double rss0 = CurrentRssBytes();
  r.start_s = WallSeconds();
  while (r.units < max_units &&
         (r.units < min_units || WallSeconds() - r.start_s < seconds)) {
    unit(r);
    ++r.units;
  }
  r.wall_s = WallSeconds() - r.start_s;
  r.cpu_s = ProcessCpuSeconds() - c0;
  r.rss_growth_bytes = CurrentRssBytes() - rss0;
  return r;
}

/// Start the shared deployment (see workloads.h) on `clock`.
Status StartDeployment(lwfs::util::Clock* clock,
                       std::unique_ptr<lwfs::core::ServiceRuntime>* out) {
  lwfs::core::RuntimeOptions o;
  o.storage_servers = 4;
  o.backend = lwfs::core::RuntimeOptions::Backend::kMemory;
  o.storage.modeled_disk_mb_s = 0;
  o.storage.modeled_op_latency_us = 0;
  o.clock = clock;
  auto rt = lwfs::core::ServiceRuntime::Start(o);
  if (!rt.ok()) return rt.status();
  *out = std::move(*rt);
  (*out)->AddUser("bench", "secret", 100);
  return OkStatus();
}

std::uint64_t StoredObjects(lwfs::core::ServiceRuntime& rt) {
  std::uint64_t n = 0;
  for (int i = 0; i < rt.storage_count(); ++i) n += rt.store(i).ObjectCount();
  return n;
}

// ---------------------------------------------------------------------------
// checkpoint: the Figure 8 cycle.  Each generation gets its own container,
// dumps every rank's state with LwfsCheckpoint::Run (one 2PC + one LinkName),
// restores it with RestoreSlices, compares bit-exactly, then removes every
// object and unlinks the name.
// ---------------------------------------------------------------------------
class CheckpointWorkload final : public Workload {
 public:
  CheckpointWorkload(std::uint64_t seed, Shape shape) : shape_(shape) {
    states_.reserve(shape.ranks);
    for (std::uint32_t r = 0; r < shape.ranks; ++r) {
      states_.push_back(
          SharedSlice::FromBuffer(MakeBytes(seed, 1000 + r, shape.rank_bytes)));
    }
  }

  Status Setup(lwfs::util::Clock* clock) override {
    LWFS_RETURN_IF_ERROR(StartDeployment(clock, &runtime_));
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("bench", "secret");
    if (!cred.ok()) return cred.status();
    cred_ = *cred;
    LWFS_RETURN_IF_ERROR(client_->Mkdir("/ckpt", true));
    baseline_objects_ = StoredObjects(*runtime_);
    gen_ = 0;
    PassResult warm;
    Generation(nullptr, warm);
    if (warm.failed != 0) return lwfs::Internal("checkpoint warm-up failed");
    return OkStatus();
  }

  PassResult Run(double seconds, std::uint64_t min_units,
                 std::uint64_t max_units,
                 const std::vector<Tracer*>& tracers) override {
    Tracer* tr = tracers.empty() ? nullptr : tracers[0];
    PassResult r = ClosedLoop(seconds, min_units, max_units,
                              [&](PassResult& p) { Generation(tr, p); });
    r.write_bytes = r.read_bytes =
        static_cast<std::uint64_t>(shape_.ranks) * shape_.rank_bytes;
    r.client_rpc = client_->rpc_stats();
    return r;
  }

  Status Teardown() override {
    Status s = client_->RmdirName("/ckpt");
    client_.reset();
    runtime_.reset();
    return s;
  }

 private:
  void Generation(Tracer* tr, PassResult& r) {
    const std::uint64_t g = gen_++;
    Ledger ledger{&r};
    ScopedSpan root(tr, "ckpt.generation", g);

    lwfs::checkpoint::LwfsCheckpoint::Config cfg;
    {
      ScopedSpan span(tr, "ckpt.container", g);
      auto cid = client_->CreateContainer(cred_);
      if (!ledger.Ok(cid, "CreateContainer")) return;
      auto cap = client_->GetCap(cred_, *cid, lwfs::security::kOpAll);
      if (!ledger.Ok(cap, "GetCap")) return;
      cfg.path = "/ckpt/gen" + std::to_string(g);
      cfg.cid = *cid;
      cfg.cap = *cap;
      cfg.journal_server =
          static_cast<std::uint32_t>(g % static_cast<std::uint64_t>(
                                             runtime_->storage_count()));
      cfg.window = 8;
    }

    auto written = TimedOp(r, tr, g, "checkpoint.run", true, [&] {
      return lwfs::checkpoint::LwfsCheckpoint::Run(*runtime_, cfg, states_);
    });
    if (written.ok()) {
      r.ckpt_create_s.push_back(written->create_seconds);
      r.ckpt_dump_s.push_back(written->dump_seconds);
      auto restored = TimedOp(r, tr, g, "checkpoint.restore", false, [&] {
        return lwfs::checkpoint::LwfsCheckpoint::RestoreSlices(
            *runtime_, cfg.cap, cfg.path);
      });
      if (restored.ok()) {
        ScopedSpan span(tr, "ckpt.verify", g);
        bool match = restored->size() == states_.size();
        for (std::size_t i = 0; match && i < states_.size(); ++i) {
          match = !FirstMismatch(states_[i].span(), (*restored)[i].span());
        }
        ledger.Verify(match, "checkpoint restore");
      }
    }

    ScopedSpan span(tr, "ckpt.cleanup", g);
    for (int s = 0; s < runtime_->storage_count(); ++s) {
      const auto server = static_cast<std::uint32_t>(s);
      auto objects = client_->ListObjects(server, cfg.cap);
      if (!ledger.Ok(objects, "ListObjects")) continue;
      for (const lwfs::storage::ObjectId& oid : *objects) {
        ledger.Ok(client_->RemoveObject(server, cfg.cap, oid), "RemoveObject");
      }
    }
    if (written.ok()) {
      ledger.Ok(client_->UnlinkName(cfg.path), "UnlinkName");
    }
    ++r.attempted;
    ledger.Verify(StoredObjects(*runtime_) == baseline_objects_,
                  "checkpoint cleanup left objects");
  }

  Shape shape_;
  std::vector<SharedSlice> states_;
  std::unique_ptr<lwfs::core::Client> client_;
  lwfs::security::Credential cred_;
  std::uint64_t baseline_objects_ = 0;
  std::uint64_t gen_ = 0;
};

// ---------------------------------------------------------------------------
// metadata: two closed-loop clients, no bulk data.  One iteration is seven
// user-visible operations on a fresh object and name; servers and names
// come from the seed.
// ---------------------------------------------------------------------------
class MetadataWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kWarmupIterations = 2000;

  explicit MetadataWorkload(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::uint32_t threads() const override { return kThreads; }

  Status Setup(lwfs::util::Clock* clock) override {
    LWFS_RETURN_IF_ERROR(StartDeployment(clock, &runtime_));
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      Thread& th = threads_[t];
      th.client = runtime_->MakeClient();
      auto cred = th.client->Login("bench", "secret");
      if (!cred.ok()) return cred.status();
      if (t == 0) {
        auto cid = th.client->CreateContainer(*cred);
        if (!cid.ok()) return cid.status();
        cid_ = *cid;
      }
      auto cap = th.client->GetCap(*cred, cid_, lwfs::security::kOpAll);
      if (!cap.ok()) return cap.status();
      th.cap = *cap;
      th.dir = "/meta/t" + std::to_string(t);
      LWFS_RETURN_IF_ERROR(th.client->Mkdir(th.dir, true));
      th.rng = Rng(StreamSeed(seed_, 200 + t));
      th.next_key = 0;
    }
    const std::uint64_t warmup = kWarmupIterations * kThreads;
    PassResult warm = Run(0, warmup, warmup, std::vector<Tracer*>{});
    if (warm.failed != 0) return lwfs::Internal("metadata warm-up failed");
    return OkStatus();
  }

  PassResult Run(double seconds, std::uint64_t min_units,
                 std::uint64_t max_units,
                 const std::vector<Tracer*>& tracers) override {
    lwfs::util::Clock* clock = runtime_->clock();
    PassResult per[kThreads];
    const double t0 = WallSeconds();
    const double c0 = ProcessCpuSeconds();
    const double rss0 = CurrentRssBytes();
    std::vector<std::thread> workers;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      Tracer* tr = tracers.size() > t ? tracers[t] : nullptr;
      workers.push_back(clock->SpawnThread([=, this, &per] {
        per[t] = ClosedLoop(seconds, (min_units + kThreads - 1) / kThreads,
                            max_units / kThreads, [&](PassResult& p) {
                              Iteration(threads_[t], tr, p);
                            });
      }));
    }
    for (std::thread& w : workers) clock->Join(w);
    PassResult out;
    out.start_s = t0;
    out.wall_s = WallSeconds() - t0;
    out.cpu_s = ProcessCpuSeconds() - c0;
    out.rss_growth_bytes = CurrentRssBytes() - rss0;
    for (PassResult& r : per) {
      out.write_ms.Merge(r.write_ms);
      out.read_ms.Merge(r.read_ms);
      for (const auto& [call, us] : r.call_us) out.call_us[call].Merge(us);
      if (out.window_ops.size() < r.window_ops.size()) {
        out.window_ops.resize(r.window_ops.size(), 0);
      }
      for (std::size_t i = 0; i < r.window_ops.size(); ++i) {
        out.window_ops[i] += r.window_ops[i];
      }
      out.write_block_tails_ms.insert(out.write_block_tails_ms.end(),
                                      r.write_block_tails_ms.begin(),
                                      r.write_block_tails_ms.end());
      out.read_block_tails_ms.insert(out.read_block_tails_ms.end(),
                                     r.read_block_tails_ms.begin(),
                                     r.read_block_tails_ms.end());
      out.units += r.units;
      out.write_copy_bytes += r.write_copy_bytes;
      out.read_copy_bytes += r.read_copy_bytes;
      out.ops += r.ops;
      out.attempted += r.attempted;
      out.failed += r.failed;
    }
    for (Thread& th : threads_) {
      AddClientStats(out.client_rpc, th.client->rpc_stats());
    }
    return out;
  }

  Status Teardown() override {
    Status first = OkStatus();
    for (Thread& th : threads_) {
      Status s = threads_[0].client->RmdirName(th.dir);
      if (first.ok()) first = s;
    }
    Status s = threads_[0].client->RmdirName("/meta");
    if (first.ok()) first = s;
    for (Thread& th : threads_) th.client.reset();
    runtime_.reset();
    return first;
  }

 private:
  struct Thread {
    std::unique_ptr<lwfs::core::Client> client;
    lwfs::security::Capability cap;
    std::string dir;
    Rng rng{0};
    std::uint64_t next_key = 0;
  };

  void Iteration(Thread& th, Tracer* tr, PassResult& r) {
    lwfs::core::Client& c = *th.client;
    const std::uint64_t key = th.next_key++;
    const auto server = static_cast<std::uint32_t>(
        th.rng.Below(static_cast<std::uint64_t>(runtime_->storage_count())));
    char leaf[24];
    std::snprintf(leaf, sizeof leaf, "%016" PRIx64, th.rng.Next());
    const std::string path = th.dir + "/" + leaf;
    Ledger ledger{&r};
    ScopedSpan root(tr, "meta.iter", key);

    auto oid = TimedOp(r, tr, key, "create", true,
                       [&] { return c.CreateObject(server, th.cap); });
    if (!oid.ok()) return;
    const lwfs::storage::ObjectRef ref{cid_, server, *oid};

    auto attr = TimedOp(r, tr, key, "getattr", false,
                        [&] { return c.GetAttr(server, th.cap, *oid); });
    if (attr.ok()) {
      ledger.Verify(attr->cid == cid_ && attr->size == 0, "GetAttr");
    }
    auto linked = TimedOp(r, tr, key, "link", true,
                          [&] { return c.LinkName(path, ref); });
    if (linked.ok()) {
      auto found = TimedOp(r, tr, key, "lookup", false,
                           [&] { return c.LookupName(path); });
      if (found.ok()) ledger.Verify(*found == ref, "LookupName");
    }
    (void)TimedOp(r, tr, key, "lock_unlock", true, [&]() -> Status {
      // Object ids are per server, so the server is part of the resource.
      const lwfs::txn::LockKey lock{
          cid_.value, (std::uint64_t{server} << 56) ^ oid->value};
      auto id = c.TryLock(lock, lwfs::txn::kWholeResource,
                          lwfs::txn::LockMode::kExclusive);
      if (!id.ok()) return id.status();
      return c.Unlock(*id);
    });
    if (linked.ok()) {
      (void)TimedOp(r, tr, key, "unlink", true,
                    [&] { return c.UnlinkName(path); });
    }
    (void)TimedOp(r, tr, key, "remove", true,
                  [&] { return c.RemoveObject(server, th.cap, *oid); });
  }

  std::uint64_t seed_;
  lwfs::storage::ContainerId cid_;
  Thread threads_[kThreads];
};

// ---------------------------------------------------------------------------
// strided: a rows x cols float64 Dataset on LwfsFs (1 MiB stripes over all
// servers, kPosix).  Each iteration writes, then reads back, a rows x
// slab_cols block at a seeded column offset: `rows` runs of slab_cols * 8
// bytes at a cols * 8 byte stride.
// ---------------------------------------------------------------------------
class StridedWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kWarmupSlabs = 2;
  static constexpr std::uint32_t kElem = 8;

  StridedWorkload(std::uint64_t seed, Shape shape)
      : seed_(seed), shape_(shape) {}

  Status Setup(lwfs::util::Clock* clock) override {
    LWFS_RETURN_IF_ERROR(StartDeployment(clock, &runtime_));
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("bench", "secret");
    if (!cred.ok()) return cred.status();
    auto cid = client_->CreateContainer(*cred);
    if (!cid.ok()) return cid.status();
    auto cap = client_->GetCap(*cred, *cid, lwfs::security::kOpAll);
    if (!cap.ok()) return cap.status();
    auto fs = lwfs::fs::LwfsFs::Mount(client_.get(), *cap, "/strided");
    if (!fs.ok()) return fs.status();
    fs_ = std::move(*fs);
    lwfs::io::DatasetSpec spec;
    spec.dims = {shape_.rows, shape_.cols};
    spec.elem_size = kElem;
    auto ds = lwfs::io::Dataset::Create(fs_.get(), kPath, spec);
    if (!ds.ok()) return ds.status();
    dataset_.emplace(std::move(*ds));
    // Fill the whole dataset once so every slab overwrites existing bytes:
    // the store then has the same shape in the first and last iteration.
    const std::uint64_t start[2] = {0, 0};
    const std::uint64_t count[2] = {shape_.rows, shape_.cols};
    LWFS_RETURN_IF_ERROR(dataset_->WriteSlabSlice(
        start, count,
        SharedSlice::FromBuffer(MakeBytes(seed_, 9000, spec.ByteSize()))));
    rng_ = Rng(StreamSeed(seed_, 300));
    next_ = 0;
    PassResult warm =
        Run(0, kWarmupSlabs, kWarmupSlabs, std::vector<Tracer*>{});
    if (warm.failed != 0) return lwfs::Internal("strided warm-up failed");
    return OkStatus();
  }

  PassResult Run(double seconds, std::uint64_t min_units,
                 std::uint64_t max_units,
                 const std::vector<Tracer*>& tracers) override {
    Tracer* tr = tracers.empty() ? nullptr : tracers[0];
    PassResult r = ClosedLoop(seconds, min_units, max_units,
                              [&](PassResult& p) { Iteration(tr, p); });
    r.write_bytes = r.read_bytes = shape_.rows * shape_.slab_cols * kElem;
    r.client_rpc = client_->rpc_stats();
    return r;
  }

  Status Teardown() override {
    dataset_.reset();
    Status s = fs_->Remove(kPath);
    Status h = fs_->Remove(std::string(kPath) + ".dshdr");
    Status d = client_->RmdirName("/strided");
    fs_.reset();
    client_.reset();
    runtime_.reset();
    if (!s.ok()) return s;
    if (!h.ok()) return h;
    return d;
  }

 private:
  static constexpr const char* kPath = "/ds";  // under the mount root

  void Iteration(Tracer* tr, PassResult& r) {
    const std::uint64_t i = next_++;
    const std::uint64_t col = rng_.Below(shape_.cols - shape_.slab_cols + 1);
    const std::uint64_t start[2] = {0, col};
    const std::uint64_t count[2] = {shape_.rows, shape_.slab_cols};
    ScopedSpan root(tr, "slab.iter", i);
    SharedSlice block;
    {
      ScopedSpan span(tr, "slab.generate", i);
      block = SharedSlice::FromBuffer(
          MakeBytes(seed_, 10000 + i, shape_.rows * shape_.slab_cols * kElem));
    }
    auto wrote = TimedOp(r, tr, i, "dataset.write_slab", true, [&] {
      return dataset_->WriteSlabSlice(start, count, block);
    });
    if (!wrote.ok()) return;
    auto read = TimedOp(r, tr, i, "dataset.read_slab", false, [&] {
      return dataset_->ReadSlabSlice(start, count);
    });
    if (read.ok()) {
      ScopedSpan span(tr, "slab.verify", i);
      Ledger{&r}.Verify(!FirstMismatch(block.span(), read->span()),
                        "slab read");
    }
  }

  std::uint64_t seed_;
  Shape shape_;
  std::unique_ptr<lwfs::core::Client> client_;
  std::unique_ptr<lwfs::fs::LwfsFs> fs_;
  std::optional<lwfs::io::Dataset> dataset_;
  Rng rng_{0};
  std::uint64_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, Shape shape) {
  if (name == "checkpoint") {
    return std::make_unique<CheckpointWorkload>(seed, shape);
  }
  if (name == "metadata") return std::make_unique<MetadataWorkload>(seed);
  if (name == "strided") return std::make_unique<StridedWorkload>(seed, shape);
  return nullptr;
}

}  // namespace perfbench
