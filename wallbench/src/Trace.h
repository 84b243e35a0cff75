//===- wallbench/src/Trace.h - spans and the timed facility -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instruments, all outside the library:
///
///   * Tracer keeps spans (name, start, end, parent, op id) in memory,
///     charges each finished span to its parent so self time is exact, and
///     writes a Chrome trace at the end of the run.
///   * TimedFacility is a forwarding MetadataFacility decorator passed to
///     the VM through VMConfig::Meta. It times every lookup, update and
///     range call into the wrapped facility, from any number of lanes.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_TRACE_H
#define WALLBENCH_TRACE_H

#include "Common.h"

#include "runtime/MetadataFacility.h"

#include <atomic>
#include <string>
#include <vector>

namespace wallbench {

class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0;
    double EndUs = 0;
    int Parent = -1; ///< Index into spans(), -1 for a root.
    uint64_t Op = 0; ///< Op id shared by every span of one op.
    double ChildUs = 0;

    double ms() const { return (EndUs - StartUs) / 1000.0; }
    double selfMs() const { return (EndUs - StartUs - ChildUs) / 1000.0; }
  };

  Tracer() : Origin(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int begin(std::string Name, uint64_t Op);
  /// Closes span \p Id (the innermost open one); returns its length in ms.
  double end(int Id);

  const Span &span(int Id) const { return Spans[Id]; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as a Chrome trace ("X" events, one thread).
  bool writeChrome(const std::string &Path) const;

private:
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span. A null tracer makes it a plain stopwatch, so traced and
/// untraced code paths can share one body.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint64_t Op)
      : T(T), Start(Clock::now()) {
    if (T)
      Id = T->begin(Name, Op);
  }
  ~Scope() { stop(); }

  /// Ends the span early; returns its length in ms.
  double stop() {
    if (Done < 0)
      Done = T ? T->end(Id) : msSince(Start);
    return Done;
  }
  /// Self time of a stopped span (whole time when untraced).
  double selfMs() const { return T ? T->span(Id).selfMs() : Done; }

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  Clock::time_point Start;
  int Id = -1;
  double Done = -1;
};

/// Time the facility spent answering, summed over every lane.
struct FacilityTime {
  uint64_t LookupNs = 0, Lookups = 0;
  uint64_t UpdateNs = 0, Updates = 0;
  uint64_t RangeNs = 0, RangeBytes = 0;

  uint64_t totalNs() const { return LookupNs + UpdateNs + RangeNs; }
  FacilityTime &operator+=(const FacilityTime &O);
};

/// Forwarding decorator that times each call into \p Inner. Thread-safe:
/// tallies are relaxed atomics on their own cache lines. Every cost and
/// statistic query forwards, so the VM's cycle accounting is unchanged.
class TimedFacility final : public softbound::MetadataFacility {
public:
  /// \p ClockNs is the measured cost of one empty timed interval; it is
  /// subtracted from every sample so short calls are not mostly clock.
  TimedFacility(softbound::MetadataFacility &Inner, double ClockNs)
      : Inner(Inner), ClockNs(static_cast<uint64_t>(ClockNs)) {}

  using MetadataFacility::update;

  const char *name() const override { return Inner.name(); }
  softbound::Bounds lookup(uint64_t Addr) override;
  void update(uint64_t Addr, softbound::Bounds B) override;
  uint64_t clearRange(uint64_t Addr, uint64_t Size) override;
  uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) override;
  uint64_t lookupCost() const override { return Inner.lookupCost(); }
  uint64_t updateCost() const override { return Inner.updateCost(); }
  uint64_t memoryBytes() const override { return Inner.memoryBytes(); }
  void reset() override { Inner.reset(); }
  softbound::MetadataStats stats() const override { return Inner.stats(); }
  unsigned shards() const override { return Inner.shards(); }
  softbound::ConcurrencyModel concurrency() const override {
    return Inner.concurrency();
  }

  FacilityTime time() const;

private:
  struct alignas(64) Tally {
    std::atomic<uint64_t> Ns{0};
    std::atomic<uint64_t> Calls{0};
    std::atomic<uint64_t> Bytes{0};
  };

  uint64_t elapsedNs(Clock::time_point T0) const;
  void add(Tally &T, Clock::time_point T0, uint64_t Bytes = 0);

  softbound::MetadataFacility &Inner;
  uint64_t ClockNs;
  Tally Lookups, Updates, Ranges;
};

/// Mean cost of one empty Clock::now() interval, in ns.
double clockOverheadNs();

} // namespace wallbench

#endif // WALLBENCH_TRACE_H
