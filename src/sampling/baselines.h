// The paper's baseline device-sampling strategies (§IV-A.3):
//   * UniformSampler       — "US", uniform random sampling (Li et al.);
//   * ClassBalanceSampler  — "CS", class-balance sampling (Fed-CBS style):
//     devices holding globally rare classes are sampled more, pushing every
//     sampled cohort toward class balance;
//   * StatisticalSampler   — "SS", statistical-utility sampling (Oort /
//     power-of-choice style): sampling probability follows each device's
//     observed training loss, estimated online from its own participation;
//   * FullParticipationSampler — q = 1 everywhere (tests/ablations only).
#pragma once

#include <vector>

#include "hfl/sampler.h"

namespace mach::sampling {

class UniformSampler final : public hfl::Sampler {
 public:
  std::string name() const override { return "uniform"; }
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;
};

/// Caps a weight vector's spread at `ratio` (w_i >= max(w)/ratio), the
/// standard utility-clipping used by practical selection systems (e.g. Oort
/// clips outlier utilities) so that inverse-probability weights stay sane.
void clip_weight_spread(std::vector<double>& weights, double ratio);

class ClassBalanceSampler final : public hfl::Sampler {
 public:
  /// `max_weight_ratio` bounds the per-device weight spread (see
  /// clip_weight_spread); <= 1 disables clipping.
  explicit ClassBalanceSampler(double max_weight_ratio = 3.5)
      : max_weight_ratio_(max_weight_ratio) {}

  std::string name() const override { return "class_balance"; }
  void bind(const hfl::FederationInfo& info) override;
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;

  /// The static balance weight assigned to a device (exposed for tests).
  double device_weight(std::uint32_t device) const { return weights_.at(device); }

 private:
  double max_weight_ratio_;
  std::vector<double> weights_;
};

class StatisticalSampler final : public hfl::Sampler {
 public:
  /// `smoothing` is the EMA factor for per-device loss estimates;
  /// `max_weight_ratio` bounds the utility spread (Oort-style clipping).
  explicit StatisticalSampler(double smoothing = 0.3, double max_weight_ratio = 3.5)
      : smoothing_(smoothing), max_weight_ratio_(max_weight_ratio) {}

  std::string name() const override { return "statistical"; }
  void bind(const hfl::FederationInfo& info) override;
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;
  void observe_training(const hfl::TrainingObservation& obs) override;
  /// Unobserved devices inherit running_mean_, which every observation
  /// moves — including those of earlier edges in the same step.
  bool reads_same_step_experience() const override { return true; }
  void save_state(ckpt::ByteWriter& out) const override;
  void load_state(ckpt::ByteReader& in) override;

  double loss_estimate(std::uint32_t device) const;

 private:
  double smoothing_;
  double max_weight_ratio_;
  std::vector<double> loss_ema_;
  std::vector<bool> observed_;
  double running_mean_ = 0.0;  // fallback utility for never-observed devices
  std::size_t observations_ = 0;
};

class FullParticipationSampler final : public hfl::Sampler {
 public:
  std::string name() const override { return "full"; }
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override {
    return std::vector<double>(ctx.devices.size(), 1.0);
  }
};

}  // namespace mach::sampling
