// Tests of apply_redundancy (sample-diversity heterogeneity, "rd").
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/partition.h"

namespace mach::data {
namespace {

// `shards` consecutive shards of `size` distinct indices each.
Partition consecutive_shards(std::size_t shards, std::size_t size) {
  Partition p(shards);
  std::size_t next = 0;
  for (auto& shard : p) {
    for (std::size_t i = 0; i < size; ++i) shard.push_back(next++);
  }
  return p;
}

std::size_t distinct(const std::vector<std::size_t>& shard) {
  return std::set<std::size_t>(shard.begin(), shard.end()).size();
}

TEST(ApplyRedundancy, KeepOneIsNoOp) {
  const Partition original = consecutive_shards(5, 9);
  Partition p = original;
  common::Rng rng(1);
  apply_redundancy(p, 1.0, 1.0, rng);
  EXPECT_EQ(p, original);
}

TEST(ApplyRedundancy, FractionZeroIsNoOp) {
  const Partition original = consecutive_shards(5, 9);
  Partition p = original;
  common::Rng rng(2);
  apply_redundancy(p, 0.0, 0.25, rng);
  EXPECT_EQ(p, original);
}

TEST(ApplyRedundancy, CollapsesToKeepPrefix) {
  for (const double keep : {0.25, 0.5, 1e-9}) {
    const Partition original = consecutive_shards(4, 10);
    Partition p = original;
    common::Rng rng(3);
    apply_redundancy(p, 1.0, keep, rng);
    const auto unique = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(keep * 10.0)));
    for (std::size_t s = 0; s < p.size(); ++s) {
      ASSERT_EQ(p[s].size(), original[s].size()) << "keep=" << keep;
      EXPECT_EQ(distinct(p[s]), unique) << "keep=" << keep;
      for (std::size_t i = 0; i < p[s].size(); ++i) {
        EXPECT_EQ(p[s][i], original[s][i % unique]) << "keep=" << keep;
      }
    }
  }
}

TEST(ApplyRedundancy, RejectsKeepOutsideUnit) {
  Partition p = consecutive_shards(2, 4);
  common::Rng rng(4);
  EXPECT_THROW(apply_redundancy(p, 0.5, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(apply_redundancy(p, 0.5, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(apply_redundancy(p, 0.5, 1.5, rng), std::invalid_argument);
  EXPECT_EQ(p, consecutive_shards(2, 4));
}

TEST(ApplyRedundancy, EmptyShardsAreSkipped) {
  // An empty shard stays empty and draws nothing, so the non-empty shards
  // collapse exactly as they would without it.
  Partition with_empty = consecutive_shards(6, 8);
  with_empty.insert(with_empty.begin() + 2, std::vector<std::size_t>{});
  Partition without = consecutive_shards(6, 8);
  common::Rng rng_a(5);
  common::Rng rng_b(5);
  apply_redundancy(with_empty, 0.5, 0.25, rng_a);
  apply_redundancy(without, 0.5, 0.25, rng_b);
  EXPECT_TRUE(with_empty[2].empty());
  with_empty.erase(with_empty.begin() + 2);
  EXPECT_EQ(with_empty, without);
}

TEST(ApplyRedundancy, FractionIsShare) {
  constexpr std::size_t kShards = 4000;
  Partition p = consecutive_shards(kShards, 4);
  common::Rng rng(6);
  apply_redundancy(p, 0.3, 0.5, rng);
  std::size_t redundant = 0;
  for (const auto& shard : p) {
    const std::size_t d = distinct(shard);
    ASSERT_TRUE(d == 2 || d == 4);
    if (d == 2) ++redundant;
  }
  // Binomial(4000, 0.3): sd ~ 29, so +-150 is over five sigma.
  EXPECT_NEAR(static_cast<double>(redundant), 0.3 * kShards, 150.0);
}

}  // namespace
}  // namespace mach::data
