#include "core/ucb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace mach::core {
namespace {

using Norms = std::vector<double>;

TEST(Ucb, NoDataOptimisticInitIsZeroBeforeAnyRound) {
  UcbEstimator ucb(3);
  // Before any cloud round everything is zero except exploration floor.
  EXPECT_DOUBLE_EQ(ucb.exploitation(0), 0.0);
  EXPECT_EQ(ucb.participations(0), 0u);
}

TEST(Ucb, ExploitationIsMaxOfRoundAverages) {
  UcbEstimator ucb(1);
  ucb.record(0, Norms{2.0, 4.0});  // round 1 avg = 3
  ucb.on_cloud_round(5);
  EXPECT_DOUBLE_EQ(ucb.exploitation(0), 3.0);
  ucb.record(0, Norms{10.0});  // round 2 avg = 10
  ucb.on_cloud_round(10);
  EXPECT_DOUBLE_EQ(ucb.exploitation(0), 10.0);
  ucb.record(0, Norms{1.0});  // round 3 avg = 1 < 10: max retained
  ucb.on_cloud_round(15);
  EXPECT_DOUBLE_EQ(ucb.exploitation(0), 10.0);
}

TEST(Ucb, BufferClearedEachCloudRound) {
  UcbEstimator ucb(1);
  ucb.record(0, Norms{4.0});
  ucb.on_cloud_round(5);  // avg 4
  ucb.record(0, Norms{8.0});
  ucb.on_cloud_round(10);  // avg 8 (not (4+8)/2 = 6)
  EXPECT_DOUBLE_EQ(ucb.exploitation(0), 8.0);
}

TEST(Ucb, PersistentBufferAblation) {
  UcbOptions options;
  options.clear_buffer_on_cloud_round = false;
  UcbEstimator ucb(1, options);
  ucb.record(0, Norms{4.0});
  ucb.on_cloud_round(5);  // avg 4
  ucb.record(0, Norms{8.0});
  ucb.on_cloud_round(10);  // avg over {4, 8} = 6
  EXPECT_DOUBLE_EQ(ucb.exploitation(0), 6.0);
}

TEST(Ucb, ExplorationShrinksWithParticipation) {
  UcbEstimator ucb(2);
  ucb.record(0, Norms{1.0});
  for (int i = 0; i < 9; ++i) ucb.record(0, Norms{1.0});  // 10 participations
  ucb.record(1, Norms{1.0});                              // 1 participation
  ucb.on_cloud_round(20);
  EXPECT_LT(ucb.exploration(0), ucb.exploration(1));
  // Exact Eq. 15 term B: sqrt(log t / count).
  EXPECT_NEAR(ucb.exploration(1), std::sqrt(std::log(20.0) / 1.0), 1e-12);
  EXPECT_NEAR(ucb.exploration(0), std::sqrt(std::log(20.0) / 10.0), 1e-12);
}

TEST(Ucb, ExplorationDisabledAblation) {
  UcbOptions options;
  options.use_exploration = false;
  UcbEstimator ucb(1, options);
  ucb.record(0, Norms{5.0});
  ucb.on_cloud_round(100);
  EXPECT_DOUBLE_EQ(ucb.exploration(0), 0.0);
  EXPECT_DOUBLE_EQ(ucb.estimate(0), 5.0);
}

TEST(Ucb, ExplorationWeightScales) {
  UcbOptions options;
  options.exploration_weight = 2.0;
  UcbEstimator ucb(1, options);
  ucb.record(0, Norms{1.0});
  ucb.on_cloud_round(10);
  EXPECT_NEAR(ucb.exploration(0), 2.0 * std::sqrt(std::log(10.0)), 1e-12);
}

TEST(Ucb, OptimisticInitBorrowsPopulationMax) {
  UcbEstimator ucb(2);
  ucb.record(0, Norms{7.0});
  ucb.on_cloud_round(5);
  // Device 1 never participated: exploitation borrows the population max.
  EXPECT_DOUBLE_EQ(ucb.exploitation(1), 7.0);
  // And its exploration term is maximal (count clamped to 1).
  EXPECT_GE(ucb.estimate(1), ucb.estimate(0));
}

TEST(Ucb, PessimisticInitAblation) {
  UcbOptions options;
  options.optimistic_init = false;
  UcbEstimator ucb(2, options);
  ucb.record(0, Norms{7.0});
  ucb.on_cloud_round(5);
  EXPECT_DOUBLE_EQ(ucb.exploitation(1), 0.0);
}

TEST(Ucb, EstimateIsSumOfTerms) {
  UcbEstimator ucb(1);
  ucb.record(0, Norms{3.0, 5.0});
  ucb.on_cloud_round(8);
  EXPECT_DOUBLE_EQ(ucb.estimate(0), ucb.exploitation(0) + ucb.exploration(0));
}

TEST(Ucb, MultipleRecordsWithinRoundAveragedTogether) {
  UcbEstimator ucb(1);
  ucb.record(0, Norms{2.0, 2.0});
  ucb.record(0, Norms{8.0, 8.0});
  ucb.on_cloud_round(5);
  EXPECT_DOUBLE_EQ(ucb.exploitation(0), 5.0);
  EXPECT_EQ(ucb.participations(0), 2u);
}

TEST(Ucb, CloudRoundReportsFoldedDevicesInAscendingOrder) {
  UcbEstimator ucb(8);
  ucb.record(6, Norms{1.0});
  ucb.record(2, Norms{3.0});
  ucb.record(6, Norms{2.0});
  ucb.record(4, Norms{});  // a participation with no experience folds nothing
  ucb.record(0, Norms{5.0, 1.0});
  std::vector<std::uint32_t> folded = {7, 7, 7};  // overwritten, not appended
  ucb.on_cloud_round(3, &folded);
  EXPECT_EQ(folded, (std::vector<std::uint32_t>{0, 2, 6}));

  // The buffers were cleared, so an empty round folds nobody.
  ucb.on_cloud_round(6, &folded);
  EXPECT_TRUE(folded.empty());

  ucb.record(5, Norms{1.0});
  ucb.on_cloud_round(9, &folded);
  EXPECT_EQ(folded, (std::vector<std::uint32_t>{5}));
}

TEST(Ucb, OutOfRangeDeviceThrows) {
  UcbEstimator ucb(2);
  EXPECT_THROW(ucb.record(5, Norms{1.0}), std::out_of_range);
  EXPECT_THROW(ucb.estimate(5), std::out_of_range);
}

}  // namespace
}  // namespace mach::core
