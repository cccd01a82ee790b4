// ScaleSimulator contract tests: determinism, bitwise resume, sublinear
// round structure, and the fixed per-device memory budget the million-device
// path is built on. Populations here are 10³–10⁴ so the suite stays fast;
// bench/scale exercises the 10⁶ end.
#include "core/scale_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "ckpt/bytes.h"

namespace mach::core {
namespace {

ScaleConfig small_config() {
  ScaleConfig config;
  config.num_devices = 2000;
  config.num_edges = 16;
  config.seed = 42;
  config.participation = 0.02;
  config.cloud_every = 3;
  config.min_dwell = 3;
  config.max_dwell = 9;
  return config;
}

std::vector<ScaleRoundStats> run(ScaleSimulator& sim, std::size_t rounds) {
  std::vector<ScaleRoundStats> stats;
  stats.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) stats.push_back(sim.step());
  return stats;
}

void expect_same_stats(const std::vector<ScaleRoundStats>& a,
                       const std::vector<ScaleRoundStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].t, b[i].t);
    ASSERT_EQ(a[i].movers, b[i].movers) << "t=" << a[i].t;
    ASSERT_EQ(a[i].participants, b[i].participants) << "t=" << a[i].t;
    ASSERT_EQ(a[i].weight_rebuilds, b[i].weight_rebuilds) << "t=" << a[i].t;
    ASSERT_EQ(a[i].sample_digest, b[i].sample_digest) << "t=" << a[i].t;
  }
}

/// FNV-1a over the bit patterns of every device's estimate() and its
/// participation count.
std::uint64_t estimate_hash(const ScaleSimulator& sim) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint32_t m = 0; m < sim.num_devices(); ++m) {
    mix(std::bit_cast<std::uint64_t>(sim.estimate(m)));
    mix(sim.participations(m));
  }
  return h;
}

struct PinnedRun {
  bool alias;
  std::uint64_t digests[60];
  std::uint64_t estimates;
};

// Reference values for small_config() over 60 rounds. Any change to the
// Eq. 15 fold order, the optimistic prior, the exploration term or the draw
// streams changes them.
constexpr PinnedRun kPinned[] = {
    {false,
     {0xeed5742ad8932d2f, 0xf564287ac8c5793f, 0x9ba364e27734b49f,
      0x4ee20103225056d7, 0xad15743bc888ddeb, 0xad824e5afb0cb4e,
      0x32f881de22d7857d, 0x7d018e567e385ce3, 0x12eccb53a2d484d2,
      0x8fda98f6c4296147, 0x55b294a46abc7273, 0x8a5ae5de8c991e67,
      0x3562536446bc0ebc, 0x61d912a98c2fd84e, 0xeb9856c286bb6b81,
      0xd536e8bcc3808fa1, 0xc8f6be5b216f7e54, 0x770d65ce26c3c1f7,
      0xb9bc0399caa8e4a0, 0xd8e444d12cc93f49, 0x94747ae42fed3bf3,
      0x1acd7d41e47914e0, 0xd3f4b7ce42c9749c, 0x8be16b2000f5d48c,
      0x4b32785a18e15def, 0x8b6c81992bd2b0b2, 0x988ed83b06c9e47d,
      0x6031428e86d521b7, 0x22bbe9c3e56f68, 0x4f847e458c0f7517,
      0x30ee39c3dd8373ce, 0xb539c18812c7419d, 0xccc5f2e640cd2d2e,
      0xaa87b7cee45ae292, 0xe1bbccbe9a547285, 0xab8aa49e3598260e,
      0x6aeec480da9987a4, 0x741bd1e1cdad39ff, 0x6f1880b0c9d257d1,
      0x8c26d5331a4dab36, 0x11b98f4f3d23aa5e, 0x33d02deca110678,
      0x3c3e50983b1834, 0x6487053f977f983c, 0x3bbe1ea7c260ab67,
      0xcf9f699ea9526003, 0x3bbf443ce67f48cd, 0x37b35568b0ab8fa1,
      0x2ae4cf5d84f0257f, 0xc2ce69ac1f81067, 0x74a4bf6c0f97baa3,
      0x1b13cec9784eed55, 0x315b45a20def410a, 0x1f80f8d9b3f81c51,
      0x2c7c38610956fb33, 0x162446d2756c76e, 0x577c4b1b7088b079,
      0xd9d9a72ccf0a987, 0x95346cabb1b041bf, 0x88ff4ddb723e92e8},
     0x46338b7e5dda8b90},
    {true,
     {0x24c087dd6a1066ee, 0xd796a7cec375224b, 0xeccc4b382d155afe,
      0x2a4413e7aa71b6b0, 0x55490f7d7999f146, 0xbdd2d6f58519dc4e,
      0x3f5900864a61b14f, 0x738438bbba7ebb5, 0x2d794129952f3489,
      0xe51db604c5ca0ddb, 0x4b35c419f488ad24, 0x913def943fbc95c,
      0x4c02be1e8ca77763, 0xfc704f78155d79db, 0xb0b12501e1fe6d3c,
      0x7a22cbae1d137642, 0xe59ecc589321d617, 0xfe5afd65ed99fe3e,
      0x6731c1ebef15368a, 0xb21f798bfcfdad67, 0xab9bae2170f8cb95,
      0x5aebedcfa9842ad1, 0x37782c9ec3dcac02, 0xc19e3fc60de9488b,
      0xbdb981977cd6c942, 0xdba0a86df5c8c337, 0x3a4c0e6863efefa,
      0xd6fd6fd1c440f2c5, 0x522f7d0f498b3f5a, 0x8cc85677c7071119,
      0x52a033897c4764cd, 0xfc863e22d89e41a7, 0xe2aa36bdad159d3,
      0xfefe1a2e54f739f, 0xe4ad2edfcab0b906, 0xaaea3809261228f6,
      0xce61cc3e877d0085, 0x420ab9321f2ba837, 0x88a24e5dbbcf796e,
      0xe6b73f8a182d9934, 0xaf3275c931c35e3e, 0x122c560f57bc6b5b,
      0xfedc879eda7df2f, 0xa48b58e3b42083c0, 0xfb25dd58d6199819,
      0x668a5372c3715231, 0xbd6c8dfe93d3bb8c, 0x12f12b658268ef3,
      0xb2d4bce0b7f0f91b, 0x3d2025e1d0164efc, 0xb5b9f46dbc22de71,
      0x174235e4e73fcd05, 0xdc2f174b47a3b4e6, 0x2ac94f7062a5ce3b,
      0xcb639b27bec8623e, 0x45b32f8b746e6e38, 0x597e6a72b50685a1,
      0x91cc58e432e49579, 0x80784a2b002567a8, 0x6e960b7031dc7b5},
     0xae31e2f7916c2cac},
};

TEST(ScaleSimulator, SampleDigestsAndEstimatesArePinned) {
  for (const PinnedRun& pinned : kPinned) {
    ScaleConfig config = small_config();
    config.use_alias_draws = pinned.alias;
    ScaleSimulator sim(config);
    const auto stats = run(sim, 60);
    for (std::size_t r = 0; r < stats.size(); ++r) {
      EXPECT_EQ(stats[r].sample_digest, pinned.digests[r])
          << "alias=" << pinned.alias << " t=" << r << std::hex
          << " digest 0x" << stats[r].sample_digest;
    }
    EXPECT_EQ(estimate_hash(sim), pinned.estimates)
        << "alias=" << pinned.alias << std::hex << " hash 0x"
        << estimate_hash(sim);
  }
}

TEST(ScaleSimulator, ValidatesConfig) {
  ScaleConfig config = small_config();
  config.num_devices = 0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.num_edges = 0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.participation = 0.0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.participation = 1.5;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.cloud_every = 0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.rebuild_drift = 0.0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  EXPECT_NO_THROW(ScaleSimulator{small_config()});
}

TEST(ScaleSimulator, MembersPartitionThePopulationEveryRound) {
  ScaleSimulator sim(small_config());
  for (std::size_t r = 0; r < 20; ++r) {
    std::set<std::uint32_t> seen;
    std::size_t total = 0;
    for (std::size_t n = 0; n < sim.num_edges(); ++n) {
      for (const std::uint32_t device : sim.edge_members(n)) {
        EXPECT_TRUE(seen.insert(device).second)
            << "device " << device << " on two edges";
        ++total;
      }
    }
    EXPECT_EQ(total, sim.num_devices());
    sim.step();
  }
}

TEST(ScaleSimulator, DeterministicAcrossInstances) {
  ScaleSimulator a(small_config());
  ScaleSimulator b(small_config());
  const auto stats_a = run(a, 30);
  const auto stats_b = run(b, 30);
  expect_same_stats(stats_a, stats_b);
  for (std::uint32_t m = 0; m < 50; ++m) {
    EXPECT_EQ(a.estimate(m), b.estimate(m)) << "device " << m;
    EXPECT_EQ(a.participations(m), b.participations(m));
  }
}

TEST(ScaleSimulator, SeedChangesTheSampleSequence) {
  ScaleConfig other = small_config();
  other.seed = 43;
  ScaleSimulator a(small_config());
  ScaleSimulator b(other);
  const auto stats_a = run(a, 10);
  const auto stats_b = run(b, 10);
  bool any_diff = false;
  for (std::size_t i = 0; i < stats_a.size(); ++i) {
    any_diff = any_diff || stats_a[i].sample_digest != stats_b[i].sample_digest;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScaleSimulator, AliasModeIsDeterministicToo) {
  ScaleConfig config = small_config();
  config.use_alias_draws = true;
  ScaleSimulator a(config);
  ScaleSimulator b(config);
  expect_same_stats(run(a, 25), run(b, 25));
  // Batch mode drops duplicate draws, so it participates at most as many
  // devices per round as the exact without-replacement path.
  ScaleSimulator exact(small_config());
  ScaleSimulator batch(config);
  for (std::size_t r = 0; r < 10; ++r) {
    const auto se = exact.step();
    const auto sb = batch.step();
    EXPECT_LE(sb.participants, se.participants + 1) << "t=" << r;
    EXPECT_GT(sb.participants, 0u);
  }
}

TEST(ScaleSimulator, SaveLoadResumesBitwise) {
  for (const bool alias : {false, true}) {
    ScaleConfig config = small_config();
    config.use_alias_draws = alias;

    ScaleSimulator live(config);
    run(live, 17);  // mid-epoch: between cloud rounds and rebuilds
    ckpt::ByteWriter snapshot;
    live.save_state(snapshot);

    ScaleSimulator restored(config);
    ckpt::ByteReader in(snapshot.data());
    restored.load_state(in);
    EXPECT_EQ(restored.t(), 17u);

    const auto tail_live = run(live, 23);
    const auto tail_restored = run(restored, 23);
    expect_same_stats(tail_live, tail_restored);
    for (std::uint32_t m = 0; m < 50; ++m) {
      EXPECT_EQ(live.estimate(m), restored.estimate(m))
          << "alias=" << alias << " device " << m;
    }
  }
}

TEST(ScaleSimulator, SaveIsNonMutatingAndStable) {
  ScaleSimulator sim(small_config());
  run(sim, 11);
  ckpt::ByteWriter first;
  sim.save_state(first);
  ckpt::ByteWriter second;
  sim.save_state(second);
  EXPECT_EQ(first.data(), second.data());
}

TEST(ScaleSimulator, RejectsForeignAndCorruptSnapshots) {
  ScaleSimulator sim(small_config());
  run(sim, 5);
  ckpt::ByteWriter snapshot;
  sim.save_state(snapshot);

  ScaleConfig other = small_config();
  other.seed = 99;
  ScaleSimulator wrong_config(other);
  ckpt::ByteReader in(snapshot.data());
  EXPECT_THROW(wrong_config.load_state(in), ckpt::CorruptPayload);

  auto truncated = snapshot.data();
  truncated.resize(truncated.size() / 2);
  ScaleSimulator target(small_config());
  ckpt::ByteReader half(truncated);
  EXPECT_THROW(target.load_state(half), ckpt::CorruptPayload);
}

TEST(ScaleSimulator, ParticipantsTrackTheConfiguredFraction) {
  ScaleConfig config = small_config();
  config.participation = 0.05;
  ScaleSimulator sim(config);
  std::size_t total = 0;
  const std::size_t rounds = 20;
  for (std::size_t r = 0; r < rounds; ++r) total += sim.step().participants;
  const double per_round = static_cast<double>(total) / rounds;
  const double expected = config.participation * config.num_devices;
  // Per-edge floors (max(1, ..)) and rounding push the realised rate up a
  // little; it must stay the right order of magnitude, not drift to O(M).
  EXPECT_GT(per_round, 0.5 * expected);
  EXPECT_LT(per_round, 3.0 * expected + config.num_edges);
}

TEST(ScaleSimulator, ExperienceConcentratesOnSampledDevices) {
  ScaleSimulator sim(small_config());
  run(sim, 40);
  std::size_t with_experience = 0;
  for (std::uint32_t m = 0; m < sim.num_devices(); ++m) {
    with_experience += sim.participations(m) > 0 ? 1 : 0;
  }
  EXPECT_GT(with_experience, 0u);
  EXPECT_LT(with_experience, sim.num_devices());  // sublinear touch per round
}

TEST(ScaleSimulator, RebuildsAmortiseGeometrically) {
  ScaleConfig config = small_config();
  config.rebuild_drift = 1e9;  // isolate the geometric schedule
  ScaleSimulator sim(config);
  std::size_t rebuilds = 0;
  const std::size_t rounds = 64;
  for (std::size_t r = 0; r < rounds; ++r) rebuilds += sim.step().weight_rebuilds;
  // Doubling schedule: each edge rebuilds O(log rounds) times, not O(rounds).
  EXPECT_LE(rebuilds, config.num_edges * 8);
  EXPECT_GE(rebuilds, config.num_edges);  // every edge rebuilt at least once
}

TEST(ScaleSimulator, MemoryStaysWithinTheFixedPerDeviceBudget) {
  ScaleConfig config = small_config();
  config.num_devices = 10000;
  config.num_edges = 50;
  ScaleSimulator sim(config);
  run(sim, 30);
  const std::size_t budget =
      ScaleSimulator::bytes_per_device() * config.num_devices +
      config.num_edges * 4096 + (1u << 20);
  EXPECT_LE(sim.memory_bytes(), budget);
  EXPECT_GT(sim.memory_bytes(), (DeviceStateArrays::bytes_per_device() +
                                 UcbEstimator::bytes_per_device()) *
                                    config.num_devices);
}

TEST(DeviceStateArrays, SaveLoadRoundTripsAndValidates) {
  DeviceStateArrays arrays;
  arrays.reset(5);
  arrays.edge[3] = 2;
  arrays.slot[3] = 9;
  arrays.weight_basis[0] = 2.5;

  ckpt::ByteWriter out;
  arrays.save(out);
  DeviceStateArrays loaded;
  loaded.reset(5);
  ckpt::ByteReader in(out.data());
  loaded.load(in);
  EXPECT_EQ(loaded.edge, arrays.edge);
  EXPECT_EQ(loaded.slot, arrays.slot);
  EXPECT_EQ(loaded.weight_basis, arrays.weight_basis);

  DeviceStateArrays wrong_size;
  wrong_size.reset(4);
  ckpt::ByteReader again(out.data());
  EXPECT_THROW(wrong_size.load(again), ckpt::CorruptPayload);
}

}  // namespace
}  // namespace mach::core
