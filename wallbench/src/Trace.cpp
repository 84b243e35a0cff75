//===- wallbench/src/Trace.cpp - spans and the timed facility -------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace wallbench;
using softbound::Bounds;

int Tracer::begin(std::string Name, uint64_t Op) {
  Span S;
  S.Name = std::move(Name);
  S.StartUs = msSince(Origin) * 1000.0;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = Op;
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

double Tracer::end(int Id) {
  Span &S = Spans[Id];
  S.EndUs = msSince(Origin) * 1000.0;
  Open.pop_back();
  if (S.Parent >= 0)
    Spans[S.Parent].ChildUs += S.EndUs - S.StartUs;
  return S.ms();
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%llu,\"self_us\":%.3f}}\n",
                 I ? "," : "", S.Name.c_str(), S.StartUs, S.EndUs - S.StartUs,
                 I, S.Parent, static_cast<unsigned long long>(S.Op),
                 S.EndUs - S.StartUs - S.ChildUs);
  }
  std::fprintf(F, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(F) == 0;
}

FacilityTime &FacilityTime::operator+=(const FacilityTime &O) {
  LookupNs += O.LookupNs;
  Lookups += O.Lookups;
  UpdateNs += O.UpdateNs;
  Updates += O.Updates;
  RangeNs += O.RangeNs;
  RangeBytes += O.RangeBytes;
  return *this;
}

uint64_t TimedFacility::elapsedNs(Clock::time_point T0) const {
  uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
  return Ns > ClockNs ? Ns - ClockNs : 0;
}

void TimedFacility::add(Tally &T, Clock::time_point T0, uint64_t Bytes) {
  T.Ns.fetch_add(elapsedNs(T0), std::memory_order_relaxed);
  T.Calls.fetch_add(1, std::memory_order_relaxed);
  if (Bytes)
    T.Bytes.fetch_add(Bytes, std::memory_order_relaxed);
}

Bounds TimedFacility::lookup(uint64_t Addr) {
  auto T0 = Clock::now();
  Bounds B = Inner.lookup(Addr);
  add(Lookups, T0);
  return B;
}

void TimedFacility::update(uint64_t Addr, Bounds B) {
  auto T0 = Clock::now();
  Inner.update(Addr, B);
  add(Updates, T0);
}

uint64_t TimedFacility::clearRange(uint64_t Addr, uint64_t Size) {
  auto T0 = Clock::now();
  uint64_t N = Inner.clearRange(Addr, Size);
  add(Ranges, T0, Size);
  return N;
}

uint64_t TimedFacility::copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) {
  auto T0 = Clock::now();
  uint64_t N = Inner.copyRange(Dst, Src, Size);
  add(Ranges, T0, Size);
  return N;
}

FacilityTime TimedFacility::time() const {
  FacilityTime T;
  T.LookupNs = Lookups.Ns.load();
  T.Lookups = Lookups.Calls.load();
  T.UpdateNs = Updates.Ns.load();
  T.Updates = Updates.Calls.load();
  T.RangeNs = Ranges.Ns.load();
  T.RangeBytes = Ranges.Bytes.load();
  return T;
}

double wallbench::clockOverheadNs() {
  // Best of several batches: the floor is the clock's own cost, anything
  // above it is the host interrupting the calibration.
  constexpr int Batch = 200000;
  double Best = 1e9;
  for (int Rep = 0; Rep < 5; ++Rep) {
    uint64_t Total = 0;
    for (int I = 0; I < Batch; ++I) {
      auto T0 = Clock::now();
      Total += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               T0)
              .count());
    }
    Best = std::min(Best, static_cast<double>(Total) / Batch);
  }
  return Best;
}
