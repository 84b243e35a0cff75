//===- tests/test_attacks.cpp - Table 3 attack suite ------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 3: each of the 18 attacks must land on the unprotected VM
/// (hijacked control flow or payload execution) and be stopped by
/// SoftBound in BOTH full and store-only checking modes — every attack
/// requires at least one out-of-bounds write.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

class AttackSuite : public ::testing::TestWithParam<int> {};

TEST_P(AttackSuite, LandsWithoutProtection) {
  const AttackCase &A = attackSuite()[GetParam()];
  RunResult R =
      runSession(PipelinePlan().frontend(A.Source).optimize()).Combined;
  EXPECT_TRUE(R.attackLanded())
      << A.Name << ": trap=" << trapName(R.Trap) << " exit=" << R.ExitCode
      << " msg=" << R.Message;
}

TEST_P(AttackSuite, DetectedByFullChecking) {
  const AttackCase &A = attackSuite()[GetParam()];
  PipelinePlan Plan;
  Plan.frontend(A.Source).optimize().softbound().checkOpt();
  RunResult R = runSession(Plan).Combined;
  EXPECT_TRUE(R.violationDetected())
      << A.Name << ": trap=" << trapName(R.Trap) << " exit=" << R.ExitCode;
  EXPECT_FALSE(R.attackLanded()) << A.Name;
}

TEST_P(AttackSuite, DetectedByStoreOnlyChecking) {
  const AttackCase &A = attackSuite()[GetParam()];
  SoftBoundConfig SB;
  SB.Mode = CheckMode::StoreOnly;
  PipelinePlan Plan;
  Plan.frontend(A.Source).optimize().softbound(SB).checkOpt();
  RunResult R = runSession(Plan).Combined;
  EXPECT_TRUE(R.violationDetected())
      << A.Name << ": trap=" << trapName(R.Trap) << " exit=" << R.ExitCode;
  EXPECT_FALSE(R.attackLanded()) << A.Name;
}

INSTANTIATE_TEST_SUITE_P(AllAttacks, AttackSuite, ::testing::Range(0, 18),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           std::string N =
                               attackSuite()[Info.param].Name;
                           for (auto &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

TEST(AttackSuiteMeta, CoversTable3Matrix) {
  // 6 direct-stack + 2 direct-heap/data + 6 indirect-stack +
  // 4 indirect-heap/data = 18 rows, as in Table 3.
  ASSERT_EQ(attackSuite().size(), 18u);
  int DirectStack = 0, DirectOther = 0, IndirectStack = 0, IndirectOther = 0;
  for (const auto &A : attackSuite()) {
    bool Direct = A.Technique == "direct overflow";
    bool Stack = A.Location == "stack";
    if (Direct && Stack)
      ++DirectStack;
    else if (Direct)
      ++DirectOther;
    else if (Stack)
      ++IndirectStack;
    else
      ++IndirectOther;
  }
  EXPECT_EQ(DirectStack, 6);
  EXPECT_EQ(DirectOther, 2);
  EXPECT_EQ(IndirectStack, 6);
  EXPECT_EQ(IndirectOther, 4);
}

} // namespace
