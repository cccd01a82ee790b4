#include "core/scale_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ckpt/rng_codec.h"

namespace mach::core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

/// Top 53 bits of a hash as a uniform double in [0, 1).
double hash_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

const ScaleConfig& validated(const ScaleConfig& config) {
  if (config.num_devices == 0) {
    throw std::invalid_argument("ScaleSimulator: num_devices must be > 0");
  }
  if (config.num_edges == 0) {
    throw std::invalid_argument("ScaleSimulator: num_edges must be > 0");
  }
  if (!(config.participation > 0.0) || config.participation > 1.0) {
    throw std::invalid_argument(
        "ScaleSimulator: participation must be in (0, 1]");
  }
  if (config.cloud_every == 0) {
    throw std::invalid_argument("ScaleSimulator: cloud_every must be > 0");
  }
  if (!(config.rebuild_drift > 0.0)) {
    throw std::invalid_argument("ScaleSimulator: rebuild_drift must be > 0");
  }
  if (config.exploration_weight < 0.0) {
    throw std::invalid_argument(
        "ScaleSimulator: exploration_weight must be >= 0");
  }
  return config;
}

mobility::GridMobilityStream::Config grid_config(const ScaleConfig& config) {
  return {.num_devices = config.num_devices,
          .num_stations = config.num_edges,
          .seed = common::split_seed(config.seed, 0x6e0bULL),
          .min_dwell = config.min_dwell,
          .max_dwell = config.max_dwell};
}

}  // namespace

ScaleSimulator::ScaleSimulator(const ScaleConfig& config)
    : config_(validated(config)),
      transfer_(config_.transfer),
      ucb_(config_.num_devices,
           UcbOptions{.exploration_weight = config_.exploration_weight}),
      edges_(config_.num_edges),
      stream_(grid_config(config_)),
      draw_rng_(common::split_seed(config_.seed, 0xd4a3ULL)) {
  devices_.reset(config_.num_devices);
  const auto stations = stream_.stations();
  for (std::uint32_t m = 0; m < config_.num_devices; ++m) {
    insert_device(m, stations[m]);
  }
}

double ScaleSimulator::synth_grad_sq(std::uint32_t device,
                                     std::size_t t) const {
  // Per-device heterogeneity level in [0.5, 2), fixed for the run, times a
  // per-step noise factor in [0.75, 1.25) — both pure hashes, so nothing is
  // stored and a resumed run observes the same values.
  const std::uint64_t hd = common::split_seed(config_.seed, 0xa11ceULL + device);
  const std::uint64_t hn = common::split_seed(hd, t + 1);
  const double base = 0.5 + 1.5 * hash_unit(hd);
  const double noise = 0.75 + 0.5 * hash_unit(hn);
  return base * noise;
}

double ScaleSimulator::estimate(std::uint32_t device) const {
  return ucb_.estimate(device);
}

double ScaleSimulator::smoothed_weight(double g2_estimate,
                                       const EdgeState& edge) const {
  double qhat = 0.0;
  if (edge.ref_total > 0.0 && !edge.members.empty()) {
    const double budget = std::max(
        1.0, std::round(config_.participation *
                        static_cast<double>(edge.members.size())));
    qhat = budget * g2_estimate / edge.ref_total;  // Eq. 16
  }
  return transfer_(qhat);  // Eq. 17: in [1, 1 + alpha/2)
}

void ScaleSimulator::insert_device(std::uint32_t device, std::uint32_t edge) {
  EdgeState& e = edges_[edge];
  devices_.edge[device] = edge;
  devices_.slot[device] = static_cast<std::uint32_t>(e.members.size());
  e.members.push_back(device);
  if (e.weights.size() < e.members.size()) {
    // Doubling growth: FenwickTree::resize is an O(n) rebuild, so growing
    // slot-by-slot on every arrival would be quadratic under churn.
    e.weights.resize(std::max<std::size_t>(e.members.size() * 2, 8));
  }
  const double est = estimate(device);
  devices_.weight_basis[device] = est;
  e.g2_total += est;
  e.weights.set(devices_.slot[device], smoothed_weight(est, e));
  e.alias_dirty = true;
}

void ScaleSimulator::remove_device(std::uint32_t device) {
  EdgeState& e = edges_[devices_.edge[device]];
  const std::uint32_t slot = devices_.slot[device];
  const std::uint32_t last = static_cast<std::uint32_t>(e.members.size() - 1);
  e.g2_total -= devices_.weight_basis[device];
  if (slot != last) {
    const std::uint32_t moved = e.members[last];
    e.members[slot] = moved;
    devices_.slot[moved] = slot;
    e.weights.set(slot, e.weights.get(last));
  }
  e.members.pop_back();
  e.weights.set(last, 0.0);
  e.alias_dirty = true;
}

void ScaleSimulator::refresh_weight(std::uint32_t device) {
  EdgeState& e = edges_[devices_.edge[device]];
  const double est = estimate(device);
  e.g2_total += est - devices_.weight_basis[device];
  devices_.weight_basis[device] = est;
  e.weights.set(devices_.slot[device], smoothed_weight(est, e));
  e.alias_dirty = true;
}

void ScaleSimulator::rebuild_edge(std::size_t n) {
  EdgeState& e = edges_[n];
  // Recompute the incremental total exactly (ascending slot order — the same
  // fold a resumed run performs) so float drift from += deltas cannot
  // accumulate across rebuild epochs.
  double exact = 0.0;
  for (const std::uint32_t device : e.members) {
    exact += devices_.weight_basis[device];
  }
  e.g2_total = exact;
  e.ref_total = exact;
  scratch_.assign(e.weights.size(), 0.0);
  for (std::size_t slot = 0; slot < e.members.size(); ++slot) {
    scratch_[slot] =
        smoothed_weight(devices_.weight_basis[e.members[slot]], e);
  }
  e.weights.assign(scratch_);
  e.alias_dirty = true;
}

void ScaleSimulator::cloud_refresh() {
  transfer_.advance_round();
  ucb_.on_cloud_round(t_ + 1, &folded_);
  // Only folded devices changed beyond the shared log t term; the others'
  // stored weights catch up at their edge's next rebuild.
  for (const std::uint32_t device : folded_) refresh_weight(device);
}

ScaleRoundStats ScaleSimulator::step() {
  ScaleRoundStats stats;
  stats.t = t_;
  stats.sample_digest = kFnvOffset;

  // 1. Mobility: the round samples under the step-t_ association. Movers are
  //    re-homed with swap-remove membership updates — O(movers log M).
  if (t_ > 0) {
    stream_.advance(moved_);
    const auto stations = stream_.stations();
    for (const std::uint32_t device : moved_) {
      remove_device(device);
      insert_device(device, stations[device]);
    }
    stats.movers = moved_.size();
  }

  // 2. Sample every edge.
  for (std::size_t n = 0; n < edges_.size(); ++n) {
    EdgeState& e = edges_[n];
    if (e.members.empty()) continue;

    const bool due = t_ + 1 >= e.next_rebuild_t;
    const bool drifted =
        e.ref_total > 0.0 &&
        std::abs(e.g2_total - e.ref_total) > config_.rebuild_drift * e.ref_total;
    if (due || drifted) {
      rebuild_edge(n);
      e.next_rebuild_t = 2 * (t_ + 1);
      ++stats.weight_rebuilds;
    }

    std::size_t k = static_cast<std::size_t>(std::llround(
        config_.participation * static_cast<double>(e.members.size())));
    k = std::min(std::max<std::size_t>(k, 1), e.members.size());

    sampled_.clear();
    if (config_.use_alias_draws) {
      if (e.alias_dirty) {
        scratch_.assign(e.members.size(), 0.0);
        for (std::size_t slot = 0; slot < e.members.size(); ++slot) {
          scratch_[slot] = e.weights.get(slot);
        }
        e.alias.build(scratch_);
        e.alias_dirty = false;
      }
      // Poisson-like batch mode: k with-replacement O(1) draws, duplicates
      // dropped, so a round may include fewer than k devices.
      for (std::size_t d = 0; d < k; ++d) {
        const std::size_t slot = e.alias.draw(draw_rng_);
        if (slot < e.members.size()) {
          sampled_.push_back(static_cast<std::uint32_t>(slot));
        }
      }
      std::sort(sampled_.begin(), sampled_.end());
      sampled_.erase(std::unique(sampled_.begin(), sampled_.end()),
                     sampled_.end());
    } else {
      e.weights.sample_without_replacement(k, draw_rng_, sampled_);
    }

    for (const std::uint32_t slot : sampled_) {
      const std::uint32_t device = e.members[slot];
      const double g2 = synth_grad_sq(device, t_);
      ucb_.record(device, {&g2, 1});
      stats.sample_digest = fnv1a_u64(stats.sample_digest, n);
      stats.sample_digest = fnv1a_u64(stats.sample_digest, device);
      ++stats.participants;
    }
    // Participation shrinks the confidence radius immediately (Eq. 15), so
    // refresh the drawn devices' weights now rather than at the next cloud
    // round — O(K log² M).
    for (const std::uint32_t slot : sampled_) {
      refresh_weight(e.members[slot]);
    }
  }

  // 3. Cloud aggregation every cloud_every rounds.
  if ((t_ + 1) % config_.cloud_every == 0) cloud_refresh();

  ++t_;
  return stats;
}

std::size_t ScaleSimulator::memory_bytes() const noexcept {
  std::size_t bytes = ucb_.memory_bytes() + devices_.memory_bytes() +
                      stream_.memory_bytes();
  for (const EdgeState& e : edges_) bytes += e.memory_bytes();
  bytes += edges_.capacity() * sizeof(EdgeState);
  bytes += folded_.capacity() * sizeof(std::uint32_t);
  bytes += moved_.capacity() * sizeof(std::uint32_t);
  bytes += sampled_.capacity() * sizeof(std::uint32_t);
  bytes += scratch_.capacity() * sizeof(double);
  return bytes;
}

void ScaleSimulator::save_state(ckpt::ByteWriter& out) const {
  out.str("scale-sim");
  out.u32(2);  // blob version
  // Config fingerprint: a snapshot only resumes under the run it came from.
  out.u64(config_.num_devices);
  out.u64(config_.num_edges);
  out.u64(config_.seed);
  out.f64(config_.participation);
  out.u64(config_.cloud_every);
  out.u32(config_.min_dwell);
  out.u32(config_.max_dwell);
  out.f64(config_.transfer.alpha);
  out.f64(config_.transfer.beta);
  out.u64(config_.transfer.warmup_rounds);
  out.f64(config_.exploration_weight);
  out.f64(config_.rebuild_drift);
  out.boolean(config_.use_alias_draws);

  out.u64(t_);
  out.u64(transfer_.rounds_seen());
  ckpt::write_rng(out, draw_rng_);
  stream_.save_cursor(out);
  ucb_.save_state(out);
  devices_.save(out);

  out.u64(edges_.size());
  for (const EdgeState& e : edges_) {
    out.u64(e.members.size());
    for (const std::uint32_t device : e.members) out.u32(device);
    out.f64(e.g2_total);
    out.f64(e.ref_total);
    out.u64(e.next_rebuild_t);
    out.u64(e.weights.size());
    for (std::size_t slot = 0; slot < e.weights.size(); ++slot) {
      out.f64(e.weights.get(slot));
    }
  }
}

void ScaleSimulator::load_state(ckpt::ByteReader& in) {
  if (in.str() != "scale-sim") {
    throw ckpt::CorruptPayload("ScaleSimulator: bad magic");
  }
  if (in.u32() != 2) {
    throw ckpt::CorruptPayload("ScaleSimulator: unsupported blob version");
  }
  const bool config_matches =
      in.u64() == config_.num_devices && in.u64() == config_.num_edges &&
      in.u64() == config_.seed && in.f64() == config_.participation &&
      in.u64() == config_.cloud_every && in.u32() == config_.min_dwell &&
      in.u32() == config_.max_dwell && in.f64() == config_.transfer.alpha &&
      in.f64() == config_.transfer.beta &&
      in.u64() == config_.transfer.warmup_rounds &&
      in.f64() == config_.exploration_weight &&
      in.f64() == config_.rebuild_drift &&
      in.boolean() == config_.use_alias_draws;
  if (!config_matches) {
    throw ckpt::CorruptPayload(
        "ScaleSimulator: snapshot was taken under a different config");
  }

  t_ = in.u64();
  transfer_.set_rounds_seen(in.u64());
  ckpt::read_rng(in, draw_rng_);
  stream_.load_cursor(in);
  ucb_.load_state(in);
  devices_.load(in);

  if (in.u64() != edges_.size()) {
    throw ckpt::CorruptPayload("ScaleSimulator: edge count mismatch");
  }
  std::size_t total_members = 0;
  for (EdgeState& e : edges_) {
    const std::size_t member_count = in.u64();
    if (member_count > config_.num_devices) {
      throw ckpt::CorruptPayload("ScaleSimulator: member count out of range");
    }
    e.members.resize(member_count);
    for (auto& device : e.members) {
      device = in.u32();
      if (device >= config_.num_devices) {
        throw ckpt::CorruptPayload("ScaleSimulator: member id out of range");
      }
    }
    total_members += member_count;
    e.g2_total = in.f64();
    e.ref_total = in.f64();
    e.next_rebuild_t = in.u64();
    const std::size_t weight_count = in.u64();
    if (weight_count < member_count) {
      throw ckpt::CorruptPayload("ScaleSimulator: weight table too small");
    }
    scratch_.resize(weight_count);
    for (auto& w : scratch_) w = in.f64();
    e.weights.assign(scratch_);
    // Alias tables rebuild deterministically from the restored weights the
    // next time their edge samples in batch mode.
    e.alias = sampling::AliasTable();
    e.alias_dirty = true;
  }
  if (total_members != config_.num_devices) {
    throw ckpt::CorruptPayload("ScaleSimulator: members do not partition devices");
  }
  // Check (and trust thereafter) the dense reverse index.
  for (std::uint32_t n = 0; n < edges_.size(); ++n) {
    const EdgeState& e = edges_[n];
    for (std::uint32_t slot = 0; slot < e.members.size(); ++slot) {
      const std::uint32_t device = e.members[slot];
      if (devices_.edge[device] != n || devices_.slot[device] != slot) {
        throw ckpt::CorruptPayload("ScaleSimulator: reverse index mismatch");
      }
    }
  }
}

}  // namespace mach::core
