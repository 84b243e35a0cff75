//===- bench/bench_metadata_micro.cpp - §5.1 facility microbench ------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the two §5.1 metadata facilities: update/lookup
/// throughput (hit and miss), occupancy sweeps for the hash table
/// (collision behaviour), and range clearing. The modelled instruction
/// costs (9 vs 5) are reported alongside for cross-reference.
///
/// `--json <path>` writes the sweep through BenchJson.h. It includes the
/// hash table's measured collision counts per occupancy, which is what
/// grounds bench_fig2_overhead's simulated-cost model (lookupCost ≈ 9
/// only while probe chains stay short). Wall-clock ns/op numbers are
/// included for artifact consumers but are machine-dependent; only the
/// deterministic fields (op counts, collisions, load factors, modelled
/// costs, memory) are stable.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchJson.h"
#include "bench/BenchUtil.h"
#include "runtime/HashTableMetadata.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "support/RNG.h"
#include "support/Telemetry.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace softbound;

namespace {

/// Fills \p M with \p N pointer slots spread over a heap-like range.
template <typename Facility>
void fill(Facility &M, uint64_t N) {
  RNG R(7);
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Addr = 0x2000'0000 + (R.below(1 << 22) << 3);
    M.update(Addr, Addr, Addr + 64);
  }
}

double nsPerOp(std::chrono::steady_clock::time_point T0, uint64_t Ops) {
  auto T1 = std::chrono::steady_clock::now();
  return Ops ? std::chrono::duration<double, std::nano>(T1 - T0).count() /
                   static_cast<double>(Ops)
             : 0.0;
}

/// Emits a facility probe-length distribution (docs/observability.md):
/// summary stats plus the non-empty power-of-two buckets as
/// {"le": <bucket upper bound>, "count": N} pairs. The shadow space never
/// probes, so its histogram is legitimately empty.
void writeProbeHist(benchjson::JsonWriter &W, const TelemetryHistogram &H) {
  W.kv("probe_count", H.count());
  W.kv("probe_mean", H.mean());
  W.kv("probe_max", H.max());
  W.key("probe_length_hist");
  W.beginArray();
  for (unsigned B = 0; B < TelemetryHistogram::NumBuckets; ++B) {
    if (!H.bucketCount(B))
      continue;
    W.beginObject();
    W.kv("le", TelemetryHistogram::bucketHi(B));
    W.kv("count", H.bucketCount(B));
    W.endObject();
  }
  W.endArray();
}

/// One facility's deterministic sweep: update, hit-lookup, miss-lookup,
/// clear-range — emitted as one JSON object.
template <typename Facility>
void jsonSweep(benchjson::JsonWriter &W, const char *Name) {
  constexpr uint64_t N = 1 << 14;
  W.key(Name);
  W.beginObject();

  Facility M;
  Telemetry Telem;
  const std::string Prefix = std::string("facility/") + Name;
  M.attachTelemetry(&Telem, Prefix);
  W.kv("modeled_lookup_cost", M.lookupCost());
  W.kv("modeled_update_cost", M.updateCost());

  auto T0 = std::chrono::steady_clock::now();
  fill(M, N);
  W.kv("update_ops", N);
  W.kv("update_ns_per_op", nsPerOp(T0, N));

  // Hits: re-look-up the same addresses the fill touched.
  RNG R(7);
  T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < N; ++I)
    M.lookup(0x2000'0000 + (R.below(1 << 22) << 3));
  W.kv("lookup_hit_ops", N);
  W.kv("lookup_hit_ns_per_op", nsPerOp(T0, N));

  // Misses: an untouched range.
  RNG RM(13);
  T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < N; ++I)
    M.lookup(0x6000'0000 + (RM.below(1 << 20) << 3));
  W.kv("lookup_miss_ops", N);
  W.kv("lookup_miss_ns_per_op", nsPerOp(T0, N));

  W.kv("lookups", M.stats().Lookups);
  W.kv("updates", M.stats().Updates);
  W.kv("collisions", M.stats().Collisions);
  W.kv("memory_bytes", M.memoryBytes());

  T0 = std::chrono::steady_clock::now();
  uint64_t Cleared = M.clearRange(0x2000'0000, (1 << 22) << 3);
  W.kv("clear_range_entries", Cleared);
  W.kv("clear_range_ns", nsPerOp(T0, 1));

  M.flushTelemetry();
  writeProbeHist(W, Telem.histogram(Prefix + "/probe_length"));
  W.endObject();
}

/// Hash-table collision behaviour as occupancy grows (the shadow space
/// has no collisions by construction — §5.1's motivation for it). The
/// collisions-per-operation curve is the ground truth behind treating
/// lookupCost as a constant 9 in the simulated-cost model.
void jsonCollisionSweep(benchjson::JsonWriter &W) {
  W.key("hash_occupancy_sweep");
  W.beginArray();
  for (uint64_t N : {uint64_t(1) << 12, uint64_t(1) << 14, uint64_t(3) << 13}) {
    HashTableMetadata M(16); // 64k entries; no growth below 32k live.
    Telemetry Telem;
    M.attachTelemetry(&Telem, "facility/hash");
    RNG R(17);
    std::vector<uint64_t> Addrs;
    for (uint64_t I = 0; I < N; ++I) {
      uint64_t Addr = 0x2000'0000 + (R.below(1 << 18) << 3);
      M.update(Addr, Addr, Addr + 64);
      Addrs.push_back(Addr);
    }
    for (uint64_t A : Addrs)
      M.lookup(A);
    W.beginObject();
    W.kv("live_entries", N);
    W.kv("load_factor", M.loadFactor());
    W.kv("collisions", M.stats().Collisions);
    W.kv("collisions_per_kiloop",
         1000.0 * static_cast<double>(M.stats().Collisions) /
             static_cast<double>(2 * N));
    // The probe-length distribution at this occupancy: the per-operation
    // view of the same collision behaviour.
    writeProbeHist(W, Telem.histogram("facility/hash/probe_length"));
    W.endObject();
  }
  W.endArray();
}

/// Shard-scaling under contention, A/B over read-path models: a fixed
/// 4-thread op mix (deterministic per-thread address streams) hammers
/// one HashTableMetadata at increasing shard counts, once with the
/// shared-mutex Sharded model and once with LockFreeRead. With one
/// shard every thread serializes on one lock; with more shards the
/// address stripes spread the threads out and lock_contended collapses;
/// under LockFreeRead the read-heavy phase acquires nothing at all and
/// the interesting counters become seqlock_reads / seqlock_retries.
/// Wall-clock ns/op is machine-dependent; op totals and the monotone
/// story in lock_acquires are the stable part.
void jsonContendedSweep(benchjson::JsonWriter &W) {
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t OpsPerThread = 1 << 16;
  W.key("contended_sweep");
  W.beginArray();
  for (ConcurrencyModel Model :
       {ConcurrencyModel::Sharded, ConcurrencyModel::LockFreeRead}) {
    for (unsigned S : {1u, 2u, 4u, 8u}) {
      HashTableMetadata M(16, {Model, S});
      fill(M, 1 << 14);
      // Update-heavy phase: exclusive acquisitions serialize on a single
      // stripe lock in both models (the write path is identical), so this
      // is where shard count buys real parallelism (addresses span ~1024
      // stripes, far more than any shard count here).
      auto T0 = std::chrono::steady_clock::now();
      std::vector<std::thread> Threads;
      for (unsigned T = 0; T < NumThreads; ++T)
        Threads.emplace_back([&M, T] {
          RNG R(101 + T); // Per-thread stream: deterministic op sequence.
          for (uint64_t I = 0; I < OpsPerThread; ++I) {
            uint64_t Addr = 0x2000'0000 + (R.below(1 << 22) << 3);
            M.update(Addr, Addr, Addr + 64);
          }
        });
      for (auto &T : Threads)
        T.join();
      double UpdateNs = nsPerOp(T0, NumThreads * OpsPerThread);
      uint64_t WriteAcquires = M.stats().LockAcquires;
      // Read-heavy phase: Sharded shared acquisitions never exclude each
      // other, but with one shard every thread still bounces the same
      // lock word; sharding spreads that coherence traffic. LockFreeRead
      // sidesteps it entirely — zero acquisitions, seqlock-validated
      // copies, retries only when a concurrent writer's window overlaps.
      T0 = std::chrono::steady_clock::now();
      Threads.clear();
      for (unsigned T = 0; T < NumThreads; ++T)
        Threads.emplace_back([&M, T] {
          RNG R(211 + T);
          for (uint64_t I = 0; I < OpsPerThread; ++I) {
            Bounds B = M.lookup(0x2000'0000 + (R.below(1 << 22) << 3));
            (void)B;
          }
        });
      for (auto &T : Threads)
        T.join();
      double LookupNs = nsPerOp(T0, NumThreads * OpsPerThread);
      MetadataStats St = M.stats();
      W.beginObject();
      W.kv("model", Model == ConcurrencyModel::LockFreeRead ? "lockfree_read"
                                                            : "sharded");
      W.kv("shards", uint64_t(M.shards()));
      W.kv("threads", uint64_t(NumThreads));
      // On a single-hardware-thread host the OS timeslices the workers, so
      // neither lock_contended nor ns_per_op can show shard scaling; report
      // the host width so consumers can tell real serialization from that.
      W.kv("hw_threads", uint64_t(std::thread::hardware_concurrency()));
      W.kv("ops", 2 * uint64_t(NumThreads) * OpsPerThread);
      W.kv("update_ns_per_op", UpdateNs);
      W.kv("lookup_ns_per_op", LookupNs);
      W.kv("lock_acquires", St.LockAcquires);
      // Read-phase acquisitions: the LockFreeRead criterion is that this
      // stays zero (all acquisitions happened in the update phase).
      W.kv("read_phase_lock_acquires", St.LockAcquires - WriteAcquires);
      W.kv("lock_contended", St.LockContended);
      W.kv("seqlock_reads", St.SeqlockReads);
      W.kv("seqlock_retries", St.SeqlockRetries);
      W.kv("contention_sim_cost", St.contentionSimCost());
      W.endObject();
    }
  }
  W.endArray();
}

int runJson(const std::string &Path) {
  benchjson::JsonWriter W;
  W.beginObject();
  W.kv("schema", "softbound-bench-metadata-micro-v1");
  W.key("facilities");
  W.beginObject();
  jsonSweep<HashTableMetadata>(W, "hash");
  jsonSweep<ShadowSpaceMetadata>(W, "shadow");
  W.endObject();
  jsonCollisionSweep(W);
  jsonContendedSweep(W);
  W.endObject();
  W.writeToOrExit(Path);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  benchutil::parseFlags(
      argc, argv,
      {{"--json", "<path>", [&](const char *A) { JsonPath = A; }}});
  if (JsonPath.empty()) {
    std::fprintf(stderr, "usage: %s --json <path>\n", argv[0]);
    return 2;
  }
  return runJson(JsonPath);
}
