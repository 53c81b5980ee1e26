//===- ForwardRunCache.h - Cross-round forward-run memoization -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LRU cache of completed forward analyses, keyed by the abstraction's
/// parameter bit-vector. The TRACER driver consults it across rounds and
/// across queries (and across successive run() calls on one driver), so an
/// abstraction revisited later - typically because two query groups solve
/// to the same minimum-cost model in different rounds - never recomputes
/// its forward fixpoint.
///
/// Epoch-based pinning keeps the driver's parallel rounds safe: the driver
/// calls beginEpoch() at every round start, and every entry looked up or
/// inserted during a round is pinned for that round, so LRU eviction (which
/// runs only at insert time) can never free a forward run that outstanding
/// tasks of the current round still reference. When every resident entry is
/// pinned the cache temporarily overshoots its capacity rather than evict.
///
/// The cache is deliberately single-threaded: the driver probes and inserts
/// only from its sequential planning/merge phases, while the parallel phase
/// works on raw pointers obtained before it started. All counters are
/// therefore deterministic regardless of the worker count. They are still
/// kept as relaxed atomics so observability readers (metrics exporters,
/// watchdog threads) can snapshot them from any thread without
/// synchronizing with the driver.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TRACER_FORWARDRUNCACHE_H
#define OPTABS_TRACER_FORWARDRUNCACHE_H

#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace optabs {
namespace tracer {

/// A point-in-time snapshot of one cache's hit/miss/eviction counters and
/// approximate resident footprint, reported through DriverStats.
struct ForwardCacheCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t ResidentBytes = 0;
  uint64_t SpillWrites = 0; ///< entries demoted to the disk tier
  uint64_t SpillLoads = 0;  ///< lookups served by re-loading a spilled run
};

template <typename RunT> class ForwardRunCache {
public:
  /// Cache key: the abstraction's parameter bits, plus a salt used by the
  /// ungrouped (§6 baseline) driver mode to keep per-query runs separate.
  /// Service-shared caches additionally scope every entry by an analysis
  /// family (e.g. the typestate tracked-site index), so one cache object
  /// can be shared across sessions without runs from different analyses
  /// colliding. Which program version a run was computed on is not part of
  /// the key: every entry carries it as its data epoch, and the caller's
  /// freshness test decides whether that version is exact for the request.
  struct Key {
    std::vector<bool> Bits;
    uint32_t Salt = 0;
    uint64_t Family = 0; ///< analysis family within one program

    friend bool operator<(const Key &A, const Key &B) {
      if (A.Family != B.Family)
        return A.Family < B.Family;
      if (A.Salt != B.Salt)
        return A.Salt < B.Salt;
      return A.Bits < B.Bits;
    }
  };

  /// \p Capacity = maximum resident entries; 0 means unbounded.
  explicit ForwardRunCache(size_t Capacity = 0) : Capacity(Capacity) {}

  void setCapacity(size_t NewCapacity) { Capacity = NewCapacity; }
  size_t capacity() const { return Capacity; }
  size_t size() const { return Entries.size(); }

  /// The freshness test of standalone caches: every run is exact.
  struct AnyEpoch {
    bool operator()(uint64_t) const { return true; }
  };

  /// True when \p K is resident with a data epoch that passes \p Fresh,
  /// without counting a hit or miss, touching recency, or consulting the
  /// disk tier (the persistence loader's skip-if-present probe).
  template <typename FreshT = AnyEpoch>
  bool contains(const Key &K, const FreshT &Fresh = FreshT()) const {
    auto It = Entries.find(K);
    return It != Entries.end() && Fresh(It->second.DataEpoch);
  }

  /// Request tracing: while a sink is set, every lookup outcome is also
  /// recorded as a per-request trace event attributed to \p Ctx and
  /// \p Batch. The service sets this around each batch's driver run (via
  /// QueryDriver::borrowExecution) and the driver only probes the cache
  /// from its sequential plan phase, so the recorded event sequence is
  /// identical at any worker count. A null \p Recorder disables recording;
  /// the disabled cost per lookup is this one pointer test.
  void setTraceSink(support::FlightRecorder *Recorder,
                    support::TraceContext Ctx = {}, uint64_t Batch = 0) {
    TraceRec = Recorder;
    TraceCtx = Ctx;
    TraceBatch = Batch;
  }

  /// Snapshot of the counters; relaxed loads, so callable from any thread
  /// (the mutating API stays single-threaded).
  ForwardCacheCounters counters() const {
    ForwardCacheCounters C;
    C.Hits = Hits.load(std::memory_order_relaxed);
    C.Misses = Misses.load(std::memory_order_relaxed);
    C.Evictions = Evictions.load(std::memory_order_relaxed);
    C.ResidentBytes = ResidentBytes.load(std::memory_order_relaxed);
    C.SpillWrites = SpillWrites.load(std::memory_order_relaxed);
    C.SpillLoads = SpillLoads.load(std::memory_order_relaxed);
    return C;
  }

  void resetCounters() {
    Hits.store(0, std::memory_order_relaxed);
    Misses.store(0, std::memory_order_relaxed);
    Evictions.store(0, std::memory_order_relaxed);
    // ResidentBytes tracks live entries, not history; it survives resets.
  }

  /// Approximate bytes held by resident forward runs (a gauge, not a
  /// counter: grows on insert, shrinks on eviction).
  uint64_t residentBytes() const {
    return ResidentBytes.load(std::memory_order_relaxed);
  }

  /// Starts a new round: entries touched from here on are pinned until the
  /// next beginEpoch() and cannot be evicted. Also releases runs that were
  /// replaced while pinned during the previous round (see insert()) and
  /// reconciles the resident-bytes gauge for them.
  void beginEpoch() {
    ++CurrentEpoch;
    for (const DeferredRun &D : Deferred)
      addResident(-static_cast<int64_t>(D.Bytes));
    Deferred.clear();
  }

  /// Returns the cached run for \p K (counting a hit and pinning it for the
  /// current epoch), or nullptr (counting a miss). An entry whose data
  /// epoch fails \p Fresh is treated as a miss without being touched: its
  /// run was computed on a program version that is not exact for some
  /// check the caller serves, and the caller is expected to recompute and
  /// insert over it. \p DataEpochOut (when non-null) receives the data
  /// epoch of a served entry.
  template <typename FreshT = AnyEpoch>
  RunT *lookup(const Key &K, const FreshT &Fresh = FreshT(),
               uint64_t *DataEpochOut = nullptr) {
    auto It = Entries.find(K);
    if (It == Entries.end() || !Fresh(It->second.DataEpoch)) {
      // Absent entirely (not merely data-stale): the disk tier may still
      // hold a spilled copy that re-warms in place of a recompute.
      if (It == Entries.end() && SpillLoad) {
        uint64_t LoadedData = 0;
        if (std::unique_ptr<RunT> Run = SpillLoad(K, &LoadedData)) {
          if (Fresh(LoadedData)) {
            SpillLoads.fetch_add(1, std::memory_order_relaxed);
            if (support::metricsEnabled())
              support::MetricRegistry::global()
                  .counter("optabs_forward_cache_spill_loads_total")
                  .add(1);
            bump(Hits, "optabs_forward_cache_hits_total");
            traceLookup("cache-spill-hit", /*U0=*/LoadedData, /*U1=*/0);
            RunT *Raw = insert(K, std::move(Run), LoadedData);
            if (DataEpochOut)
              *DataEpochOut = LoadedData;
            return Raw;
          }
        }
      }
      bump(Misses, "optabs_forward_cache_misses_total");
      // U1 = 1 when an entry existed but its data epoch was not exact for
      // the requesting checks (re-registration shadowing), 0 = cold miss.
      traceLookup("cache-miss", /*U0=*/0,
                  /*U1=*/It == Entries.end() ? 0 : 1);
      return nullptr;
    }
    bump(Hits, "optabs_forward_cache_hits_total");
    touch(It->second);
    if (DataEpochOut)
      *DataEpochOut = It->second.DataEpoch;
    // U0 = the served run's data epoch: older than the live registration
    // means a run computed on an earlier, footprint-clean version answered.
    traceLookup("cache-hit", /*U0=*/It->second.DataEpoch, /*U1=*/0);
    return It->second.Run.get();
  }

  /// Counts a hit without a lookup - used when the driver resolves a second
  /// request for a key it already materialized this round.
  void noteSharedHit() {
    bump(Hits, "optabs_forward_cache_hits_total");
    traceLookup("cache-shared-hit", 0, 0);
  }

  /// Counts a miss without a lookup - used when the driver discards a run
  /// it already resolved this round because a later requester's checks
  /// need a fresher data epoch.
  void noteStaleMiss() {
    bump(Misses, "optabs_forward_cache_misses_total");
    traceLookup("cache-stale-miss", 0, 0);
  }

  /// Inserts a freshly computed run (pinned for the current epoch) and
  /// applies LRU eviction if the cache exceeds its capacity. \p DataEpoch
  /// records which program version's IR the run was computed against (0
  /// for standalone caches, which see one version). Returns the now-owned
  /// run.
  ///
  /// Replacing an entry that is pinned by the current round defers the old
  /// run's destruction to the next beginEpoch(): the driver may still hold
  /// a raw pointer into it from an earlier lookup this round. The deferred
  /// run's bytes stay charged to the gauge until it is actually freed, so
  /// residentBytes() keeps reflecting live memory rather than drifting.
  RunT *insert(Key K, std::unique_ptr<RunT> Run, uint64_t DataEpoch = 0) {
    Entry &E = Entries[std::move(K)];
    if (E.Run) {
      if (E.Epoch == CurrentEpoch)
        Deferred.push_back({std::move(E.Run), E.Bytes});
      else
        addResident(-static_cast<int64_t>(E.Bytes)); // re-insert, unpinned
    }
    E.Run = std::move(Run);
    E.Bytes = approxBytesOf(*E.Run, 0);
    E.DataEpoch = DataEpoch;
    addResident(static_cast<int64_t>(E.Bytes));
    touch(E);
    evictOverCapacity();
    return E.Run.get();
  }

  /// Calls \p Fn with the data epoch of every resident entry (the service
  /// uses this to decide which retired program versions are still
  /// referenced by cached runs).
  template <typename FnT> void forEachDataEpoch(FnT Fn) const {
    for (const auto &KV : Entries)
      Fn(KV.second.DataEpoch);
  }

  /// Drops every entry whose data epoch satisfies \p Pred, regardless of
  /// pinning or capacity - the service's invalidation hook for
  /// re-registered programs (runs exact for no live check go at once,
  /// between batches, when nothing references them). Returns the number
  /// evicted.
  template <typename PredT> size_t evictDataWhere(PredT Pred) {
    size_t Count = 0;
    for (auto It = Entries.begin(); It != Entries.end();) {
      if (!Pred(It->second.DataEpoch)) {
        ++It;
        continue;
      }
      addResident(-static_cast<int64_t>(It->second.Bytes));
      bump(Evictions, "optabs_forward_cache_evictions_total");
      It = Entries.erase(It);
      ++Count;
    }
    return Count;
  }

  /// Drops every entry not pinned by the current epoch, regardless of
  /// capacity — the degradation ladder's immediate memory-pressure relief.
  /// Pinned entries stay because the driver may hold raw pointers into
  /// them for the rest of the round. Returns the number evicted.
  size_t evictUnpinned() {
    size_t Count = 0;
    for (auto It = Entries.begin(); It != Entries.end();) {
      if (It->second.Epoch == CurrentEpoch) {
        ++It;
        continue;
      }
      addResident(-static_cast<int64_t>(It->second.Bytes));
      bump(Evictions, "optabs_forward_cache_evictions_total");
      It = Entries.erase(It);
      ++Count;
    }
    return Count;
  }

  /// The disk tier's hook pair, installed by the owner (the analysis
  /// service binds them to its cache directory and state codecs; both run
  /// on the same single thread as every other mutating call). Save
  /// returns false to refuse an entry (e.g. the spill-byte budget is
  /// exhausted or the run's program version is not identical to the live
  /// one) - the entry is then evicted outright, exactly as without a disk
  /// tier. Load returns the reconstructed run (with its data epoch through
  /// the out param) or nullptr when the disk tier has no valid copy.
  using SpillSaveFn =
      std::function<bool(const Key &, const RunT &, uint64_t DataEpoch)>;
  using SpillLoadFn =
      std::function<std::unique_ptr<RunT>(const Key &, uint64_t *DataEpoch)>;

  void setSpillStore(SpillSaveFn Save, SpillLoadFn Load) {
    SpillSave = std::move(Save);
    SpillLoad = std::move(Load);
  }
  bool spillArmed() const { return static_cast<bool>(SpillSave); }

  /// The degradation ladder's memory-pressure relief with a disk tier:
  /// demotes every unpinned entry through the spill hook (counting a
  /// spill write per accepted entry) and then evicts it from memory.
  /// Without an armed spill store this is exactly evictUnpinned().
  /// Returns the number of entries that left memory.
  size_t spillUnpinned() {
    if (!SpillSave)
      return evictUnpinned();
    for (const auto &KV : Entries) {
      if (KV.second.Epoch == CurrentEpoch)
        continue;
      if (SpillSave(KV.first, *KV.second.Run, KV.second.DataEpoch)) {
        SpillWrites.fetch_add(1, std::memory_order_relaxed);
        if (support::metricsEnabled())
          support::MetricRegistry::global()
              .counter("optabs_forward_cache_spill_writes_total")
              .add(1);
      }
    }
    return evictUnpinned();
  }

  /// Calls \p Fn(Key, Run, DataEpoch) for every resident entry, in key
  /// order. The persistence tier's enumeration hook; read-only.
  template <typename FnT> void forEachEntry(FnT Fn) const {
    for (const auto &KV : Entries)
      Fn(KV.first, *KV.second.Run, KV.second.DataEpoch);
  }

private:
  struct Entry {
    std::unique_ptr<RunT> Run;
    uint64_t Stamp = 0; ///< recency; larger = more recently used
    uint64_t Epoch = 0; ///< last epoch this entry was touched in
    uint64_t Bytes = 0; ///< approx footprint charged to ResidentBytes
    uint64_t DataEpoch = 0; ///< program version the run was computed on
  };

  /// A run replaced while pinned: kept alive (and charged to the gauge)
  /// until the round that may reference it ends.
  struct DeferredRun {
    std::unique_ptr<RunT> Run;
    uint64_t Bytes = 0;
  };

  /// Footprint estimate of a run: RunT::approxMemoryBytes() when the type
  /// provides it (ForwardAnalysis does), sizeof(RunT) otherwise (unit tests
  /// cache plain structs).
  template <typename R>
  static auto approxBytesOf(const R &Run, int)
      -> decltype(Run.approxMemoryBytes()) {
    return Run.approxMemoryBytes();
  }
  template <typename R> static size_t approxBytesOf(const R &, long) {
    return sizeof(R);
  }

  void bump(std::atomic<uint64_t> &C, const char *MetricName) {
    C.fetch_add(1, std::memory_order_relaxed);
    if (support::metricsEnabled())
      support::MetricRegistry::global().counter(MetricName).add(1);
  }

  /// One pointer test when tracing is off; otherwise a trace event
  /// attributed to the batch context installed by setTraceSink().
  void traceLookup(const char *Kind, uint64_t U0, uint64_t U1) {
    if (!TraceRec)
      return;
    support::TraceEvent E;
    E.Kind = Kind;
    E.TraceId = TraceCtx.TraceId;
    E.SpanId = TraceCtx.SpanId;
    E.Batch = TraceBatch;
    E.U0 = U0;
    E.U1 = U1;
    TraceRec->record(std::move(E));
  }

  void addResident(int64_t Delta) {
    ResidentBytes.fetch_add(static_cast<uint64_t>(Delta),
                            std::memory_order_relaxed);
    if (support::metricsEnabled())
      support::MetricRegistry::global()
          .gauge("optabs_forward_cache_resident_bytes")
          .add(Delta);
  }

  void touch(Entry &E) {
    E.Stamp = ++StampCounter;
    E.Epoch = CurrentEpoch;
  }

  void evictOverCapacity() {
    if (Capacity == 0)
      return;
    while (Entries.size() > Capacity) {
      auto Victim = Entries.end();
      for (auto It = Entries.begin(); It != Entries.end(); ++It) {
        if (It->second.Epoch == CurrentEpoch)
          continue; // pinned: in use by the current round
        if (Victim == Entries.end() ||
            It->second.Stamp < Victim->second.Stamp)
          Victim = It;
      }
      if (Victim == Entries.end())
        return; // everything pinned: overshoot rather than evict
      addResident(-static_cast<int64_t>(Victim->second.Bytes));
      Entries.erase(Victim);
      bump(Evictions, "optabs_forward_cache_evictions_total");
    }
  }

  size_t Capacity;
  std::map<Key, Entry> Entries;
  std::vector<DeferredRun> Deferred;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> ResidentBytes{0};
  std::atomic<uint64_t> SpillWrites{0};
  std::atomic<uint64_t> SpillLoads{0};
  SpillSaveFn SpillSave;
  SpillLoadFn SpillLoad;
  uint64_t StampCounter = 0;
  uint64_t CurrentEpoch = 1;
  /// Request-tracing sink (null = off); installed by setTraceSink() from
  /// the same single-threaded owner that drives every mutating call.
  support::FlightRecorder *TraceRec = nullptr;
  support::TraceContext TraceCtx;
  uint64_t TraceBatch = 0;
};

} // namespace tracer
} // namespace optabs

#endif // OPTABS_TRACER_FORWARDRUNCACHE_H
