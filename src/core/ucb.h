// Experience updating (Algorithm 2): online UCB estimation of each device's
// maximum expected squared gradient norm G_m^2.
//
// Every device keeps a gradient-experience buffer of the ||g||^2 values it
// produced between consecutive edge-to-cloud communications. At each cloud
// round the estimate is refreshed as
//     G~^2_m = max_{t'} 1_m^{t'} Avg(G_m^{t'})  +  sqrt(log t / sum_t' 1_m^{t'})
// (Eq. 15: exploitation term A = best per-round mean seen so far,
// exploration term B = confidence radius shrinking with participations),
// and the buffer is cleared (Alg. 2 line 4).
//
// Storage is structure-of-arrays with a fixed per-device byte budget: the
// per-device experience buffer is held as a running (sum, count) pair — the
// round mean Avg(G_m^t) is the same left-to-right fold either way, so the
// estimates are bitwise identical to the buffered representation while the
// state shrinks from an unbounded vector per device to 29 bytes per device.
// Cloud-round refreshes walk only the devices that actually buffered
// experience since the last refresh (O(participants), not O(M)).
//
// This is the only implementation of Eq. 15: MachSampler and
// GlobalMachSampler hold one per run, and the million-device ScaleSimulator
// holds one for its whole population.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mach::ckpt {
class ByteWriter;
class ByteReader;
}  // namespace mach::ckpt

namespace mach::core {

struct UcbOptions {
  /// Scale on the exploration term (1.0 = paper's Eq. 15).
  double exploration_weight = 1.0;
  /// Ablation: drop term B entirely (pure greedy exploitation).
  bool use_exploration = true;
  /// Ablation: keep the buffer across cloud rounds instead of clearing it.
  bool clear_buffer_on_cloud_round = true;
  /// Optimistic prior for devices that have never participated: their
  /// exploitation term borrows the current population maximum.
  bool optimistic_init = true;
};

class UcbEstimator {
 public:
  UcbEstimator(std::size_t num_devices, UcbOptions options = {});

  /// Records one participation of `device`: the ||g||^2 values of its I
  /// local steps are folded into its experience accumulator (Eq. 14).
  void record(std::uint32_t device, std::span<const double> grad_sq_norms);

  /// Cloud-round bookkeeping: folds buffered experience into the per-round
  /// maxima and (by default) clears it. Only devices that buffered since the
  /// last refresh are visited. `t` is the current global time step used in
  /// the log t exploration numerator. When `folded` is given it receives the
  /// folded devices in ascending order — the devices whose estimate changed
  /// beyond the shared log t term.
  void on_cloud_round(std::size_t t,
                      std::vector<std::uint32_t>* folded = nullptr);

  /// Current estimate G~^2_m (Eq. 15). Never-participated devices return an
  /// optimistic value so they keep being explored.
  double estimate(std::uint32_t device) const;

  /// Exploitation term A only (tests / ablation introspection).
  double exploitation(std::uint32_t device) const;
  /// Exploration term B only.
  double exploration(std::uint32_t device) const;

  std::size_t participations(std::uint32_t device) const {
    return counts_.at(device);
  }
  /// Experiences buffered for `device` since the last cloud round (the
  /// |G_m^t| of Alg. 2 line 4; telemetry/introspection).
  std::size_t buffer_size(std::uint32_t device) const {
    return buffer_count_.at(device);
  }
  std::size_t num_devices() const noexcept { return counts_.size(); }

  /// Fixed per-device state: sum(8) + count(4) + max_avg(8) + flags(1) +
  /// participations(4) + active-list slot(4).
  static constexpr std::size_t bytes_per_device() noexcept { return 29; }

  /// Actual bytes held (capacities, for RSS accounting).
  std::size_t memory_bytes() const noexcept;

  /// Checkpointing: serialises all of Algorithm 2's accumulated state —
  /// experience accumulators, per-round maxima, participation counts, the
  /// population maximum and the last cloud-round time.
  void save_state(ckpt::ByteWriter& out) const;
  /// Restores a save_state blob into this estimator. Throws
  /// ckpt::CorruptPayload when the blob's device count disagrees with the
  /// estimator's (snapshot from a different topology).
  void load_state(ckpt::ByteReader& in);

 private:
  static constexpr std::uint8_t kHasEstimate = 1;
  static constexpr std::uint8_t kInActiveList = 2;

  UcbOptions options_;
  // SoA per-device state (parallel arrays).
  std::vector<double> buffer_sum_;          // Σ G_m^t since last refresh
  std::vector<std::uint32_t> buffer_count_; // |G_m^t|
  std::vector<double> max_round_avg_;       // max_{t'} Avg(G_m^{t'})
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> counts_;       // sum_t' 1_m^{t'}
  // Devices with a non-empty buffer — the only ones a refresh must visit.
  std::vector<std::uint32_t> active_;
  double population_max_ = 0.0;
  std::size_t last_cloud_t_ = 0;
};

}  // namespace mach::core
