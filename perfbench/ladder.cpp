// The layer ladder: each layer's public entry point timed alone, outside
// any deployment, on RealClock.  Together with the workloads' spans these
// give every gap between a layer alone and the full stack an owner.
//
// Sub-microsecond rungs (naming lookup) time batches and report the median
// per-call mean of a batch, so the clock read does not dominate.
#include <functional>

#include "core/io_scheduler.h"
#include "naming/naming.h"
#include "portals/portals.h"
#include "rpc/rpc.h"
#include "storage/object_store.h"
#include "txn/journal.h"
#include "txn/two_phase.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lwfs::Buffer;
using lwfs::ByteSpan;
using lwfs::Status;
using lwfs::util::SharedSlice;

constexpr int kWarmup = 200;
constexpr int kSamples = 2000;
constexpr int kBulkSamples = 200;
constexpr std::size_t kMiB = 1u << 20;

/// Median wall time of `op` in microseconds over `samples` calls, after
/// `kWarmup` untimed ones; each call is `batch` invocations.  A false return
/// from `op` is a failure and is counted, never dropped.
double MedianUs(int samples, int batch, std::uint64_t* failed,
                const std::function<bool()>& op) {
  for (int i = 0; i < kWarmup; ++i) {
    if (!op()) ++*failed;
  }
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double a = WallSeconds();
    for (int j = 0; j < batch; ++j) {
      if (!op()) ++*failed;
    }
    us.push_back((WallSeconds() - a) * 1e6 / batch);
  }
  return Median(std::move(us));
}

double PortalsPutSmallUs(std::uint64_t seed, std::uint64_t* failed) {
  lwfs::portals::Fabric fabric;
  auto src = fabric.CreateNic();
  auto dst = fabric.CreateNic();
  lwfs::portals::EventQueue eq(64);
  lwfs::portals::MeOptions me;
  me.allow_put = true;
  me.message_mode = true;
  auto handle = dst->Attach(0, 1, 0, {}, me, &eq);
  if (!handle.ok()) {
    ++*failed;
    return 0;
  }
  const Buffer msg = MakeBytes(seed, 1, 64);
  return MedianUs(kSamples, 1, failed, [&] {
    if (!src->Put(dst->nid(), 0, 1, ByteSpan(msg)).ok()) return false;
    auto ev = eq.Wait();
    return ev.has_value() && ev->payload.size() == msg.size();
  });
}

/// RpcServer with an empty handler (opcode 1) and a 1 MiB pull handler
/// (opcode 2), driven by one RpcClient.
struct RpcRig {
  lwfs::portals::Fabric fabric;
  lwfs::rpc::RpcServer server{fabric.CreateNic()};
  std::unique_ptr<lwfs::rpc::RpcClient> client;

  RpcRig() {
    (void)server.RegisterHandler(
        1, [](lwfs::rpc::ServerContext&,
              lwfs::Decoder&) -> lwfs::Result<Buffer> { return Buffer{}; });
    (void)server.RegisterHandler(
        2, [](lwfs::rpc::ServerContext& ctx,
              lwfs::Decoder&) -> lwfs::Result<Buffer> {
          auto bulk = ctx.PullBulkSlice(ctx.bulk_out_size());
          if (!bulk.ok()) return bulk.status();
          if (bulk->size() != ctx.bulk_out_size()) {
            return lwfs::DataLoss("short bulk pull");
          }
          return Buffer{};
        });
    client = std::make_unique<lwfs::rpc::RpcClient>(fabric.CreateNic());
  }
  ~RpcRig() {
    client.reset();
    server.Stop();
  }
  RpcRig(const RpcRig&) = delete;
  RpcRig& operator=(const RpcRig&) = delete;
};

double StorageSliceMbS(std::uint64_t seed, bool write, std::uint64_t* failed) {
  lwfs::storage::MemObjectStore store;
  auto oid = store.Create(lwfs::storage::ContainerId{1});
  if (!oid.ok()) {
    ++*failed;
    return 0;
  }
  const SharedSlice payload = SharedSlice::FromBuffer(MakeBytes(seed, 2, kMiB));
  if (!store.WriteSlice(*oid, 0, payload).ok()) ++*failed;
  const double us = MedianUs(kBulkSamples, 1, failed, [&] {
    if (write) return store.WriteSlice(*oid, 0, payload).ok();
    auto got = store.ReadSlice(*oid, 0, kMiB);
    return got.ok() && got->size() == kMiB;
  });
  return MbPerSec(kMiB, us / 1e6);
}

}  // namespace

std::map<std::string, double> RunLadder(std::uint64_t seed,
                                        std::uint64_t* failed) {
  std::map<std::string, double> out;
  out["portals.put_small_us_p50"] = PortalsPutSmallUs(seed, failed);

  {
    RpcRig rig;
    if (!rig.server.Start().ok()) ++*failed;
    const auto target = rig.server.nid();
    out["rpc.null_call_us_p50"] = MedianUs(kSamples, 1, failed, [&] {
      return rig.client->Call(target, 1, ByteSpan{}).ok();
    });
    lwfs::rpc::CallOptions bulk;
    bulk.bulk_out_slice = SharedSlice::FromBuffer(MakeBytes(seed, 3, kMiB));
    const double us = MedianUs(kBulkSamples, 1, failed, [&] {
      return rig.client->Call(target, 2, ByteSpan{}, bulk).ok();
    });
    out["rpc.bulk_1m_mb_s"] = MbPerSec(kMiB, us / 1e6);
  }

  {
    lwfs::storage::MemObjectStore store;
    auto oid = store.Create(lwfs::storage::ContainerId{1});
    if (!oid.ok()) ++*failed;
    const Buffer page = MakeBytes(seed, 4, 4096);
    lwfs::core::IoScheduler sched(lwfs::core::IoSchedulerOptions{});
    sched.Start();
    out["core.io_scheduler.submit_4k_us_p50"] =
        MedianUs(kSamples, 1, failed, [&] {
          auto ticket = sched.Submit(*oid, true, 0, page.size(), [&] {
            return store.Write(*oid, 0, ByteSpan(page));
          });
          return ticket->Await().ok();
        });
    sched.Stop();
  }

  out["storage.write_slice_mb_s"] = StorageSliceMbS(seed, true, failed);
  out["storage.read_slice_mb_s"] = StorageSliceMbS(seed, false, failed);

  {
    lwfs::storage::MemObjectStore store;
    auto journal =
        lwfs::txn::Journal::Create(&store, lwfs::storage::ContainerId{1});
    if (journal.ok()) {
      lwfs::txn::Coordinator coordinator(&*journal);
      lwfs::txn::StagedParticipant participant("bench");
      out["txn.empty_commit_us_p50"] = MedianUs(kSamples, 1, failed, [&] {
        auto txid = coordinator.Begin({&participant});
        return txid.ok() && coordinator.Commit(*txid).ok();
      });
    } else {
      ++*failed;
      out["txn.empty_commit_us_p50"] = 0;
    }
  }

  {
    lwfs::naming::NamingService naming;
    const lwfs::storage::ObjectRef ref{lwfs::storage::ContainerId{1}, 2,
                                       lwfs::storage::ObjectId{seed | 1}};
    if (!naming.Mkdir("/ladder").ok() ||
        !naming.Link("/ladder/leaf", ref).ok()) {
      ++*failed;
    }
    out["naming.lookup_us_p50"] = MedianUs(kSamples, 100, failed, [&] {
      auto got = naming.Lookup("/ladder/leaf");
      return got.ok() && *got == ref;
    });
  }
  return out;
}

}  // namespace perfbench
