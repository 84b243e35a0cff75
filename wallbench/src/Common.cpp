//===- wallbench/src/Common.cpp - shared benchmark plumbing ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace wallbench;

namespace {

void logFailure(uint64_t Count, const std::string &What) {
  constexpr uint64_t MaxLogged = 20;
  if (Count <= MaxLogged)
    std::fprintf(stderr, "FAILED: %s\n", What.c_str());
  else if (Count == MaxLogged + 1)
    std::fprintf(stderr, "FAILED: (further failures not logged)\n");
}

} // namespace

void wallbench::failOp(Report &R, const std::string &What) {
  ++R.Failed;
  logFailure(R.Failed, What);
}

void wallbench::failSetup(Report &R, const std::string &What) {
  R.SetupOk = false;
  logFailure(1, What);
}

double wallbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

std::string wallbench::digest(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

bool wallbench::readAnswers(const std::string &Path,
                            std::vector<std::vector<std::string>> &Rows) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    Rows.emplace_back();
    for (std::string F; Fields >> F;)
      Rows.back().push_back(F);
  }
  return true;
}

double wallbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB.
}
