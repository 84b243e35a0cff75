//===- wallbench/src/Common.h - shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the result a workload hands back to main, wall-clock helpers,
/// sample statistics, and the seeded shuffle every workload uses to order
/// its ops.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_COMMON_H
#define WALLBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point A) {
  return std::chrono::duration<double, std::milli>(Clock::now() - A).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;    ///< Chrome trace path (traced runs only).
  std::string ExpectedDir; ///< Directory holding the committed answer files.
};

/// One reported metric.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run hands back: op counts, correctness, metrics.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Cleared by any check outside an op (answer file unreadable, build
  /// failure, trace not written); Failed covers per-op checks.
  bool SetupOk = true;
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  bool correct() const { return SetupOk && Failed == 0 && Attempted > 0; }
};

/// Records one failed check: counts it and logs the first few to stderr.
void failOp(Report &R, const std::string &What);

/// Records a check outside any op: the run reports correct=false.
void failSetup(Report &R, const std::string &What);

/// The \p Q-quantile (0..1) of \p V, linear between closest ranks.
double quantile(std::vector<double> V, double Q);

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

inline double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Seeded Fisher-Yates shuffle with its own index draw, so an op order is
/// a function of the seed alone (std::shuffle's algorithm is unspecified).
template <typename T>
void seededShuffle(std::vector<T> &V, std::mt19937_64 &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R() % I]);
}

/// 64-bit FNV-1a of \p S, as 16 hex digits (program output digests).
std::string digest(const std::string &S);

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Reads a whitespace-separated answer file: one record per line, '#'
/// comments. Returns false when the file cannot be opened.
bool readAnswers(const std::string &Path,
                 std::vector<std::vector<std::string>> &Rows);

/// Wall times of repeated ops, by op kind. opMs() is the mean over kinds
/// of each kind's median time, so a stall during one round moves it far
/// less than a plain mean would, and ops of very different sizes never
/// meet in one percentile.
template <typename Key> struct OpTimes {
  std::map<Key, std::vector<double>> Ms;

  void add(const Key &K, double OpMs) { Ms[K].push_back(OpMs); }

  double opMs() const {
    double S = 0;
    for (const auto &[K, Samples] : Ms)
      S += median(Samples);
    return Ms.empty() ? 0 : S / static_cast<double>(Ms.size());
  }
};

/// Runs \p Setup \p Times times and returns the median wall time in
/// seconds; the last repetition's products are the ones ops reuse.
template <typename F> double timedSetup(unsigned Times, F &&Setup) {
  std::vector<double> S;
  for (unsigned I = 0; I < Times; ++I) {
    auto T0 = Clock::now();
    Setup();
    S.push_back(msSince(T0) / 1000.0);
  }
  return median(S);
}

} // namespace wallbench

#endif // WALLBENCH_COMMON_H
