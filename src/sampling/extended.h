// Additional client-selection baselines from the literature the paper cites,
// for extension experiments beyond the paper's three basic baselines:
//
//  * PowerOfChoiceSampler — Cho, Wang & Joshi (AISTATS'22): sample a
//    candidate set of d devices uniformly, then concentrate the budget on
//    the ones with the highest current loss (biased selection, no HT
//    correction in the original; here the probabilities are still consumed
//    by the HT engine, so the bias appears as a skewed q).
//  * OortSampler — Lai et al. (OSDI'21): statistical utility
//    |B| * sqrt(mean of squared losses) with an exploration bonus for
//    stale/unseen devices and utility clipping at a percentile.
#pragma once

#include <vector>

#include "common/rng.h"
#include "hfl/sampler.h"

namespace mach::sampling {

class PowerOfChoiceSampler final : public hfl::Sampler {
 public:
  /// `candidate_fraction` is d/|M_n^t|: the fraction of the edge's devices
  /// entering the candidate set each step (clamped to at least the budget).
  explicit PowerOfChoiceSampler(double candidate_fraction = 0.75,
                                std::uint64_t seed = 0x9c0e);

  std::string name() const override { return "power_of_choice"; }
  void bind(const hfl::FederationInfo& info) override;
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;
  void observe_training(const hfl::TrainingObservation& obs) override;
  void save_state(ckpt::ByteWriter& out) const override;
  void load_state(ckpt::ByteReader& in) override;

 private:
  double candidate_fraction_;
  common::Rng rng_;
  std::vector<double> last_loss_;
  std::vector<bool> observed_;
};

class OortSampler final : public hfl::Sampler {
 public:
  struct Options {
    /// Weight of the temporal-staleness exploration bonus.
    double exploration_weight = 0.5;
    /// Utility values above this multiple of the median are clipped
    /// (Oort clips outliers to bound over-commitment).
    double clip_multiple = 3.0;
    /// EMA factor for the per-device utility estimate.
    double smoothing = 0.5;
  };

  OortSampler();
  explicit OortSampler(Options options);

  std::string name() const override { return "oort"; }
  void bind(const hfl::FederationInfo& info) override;
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;
  void observe_training(const hfl::TrainingObservation& obs) override;
  /// The clipping median runs over every observed device, so an edge's
  /// decision reads the experience earlier edges gathered in the same step.
  bool reads_same_step_experience() const override { return true; }
  void save_state(ckpt::ByteWriter& out) const override;
  void load_state(ckpt::ByteReader& in) override;

  /// Current clipped utility of a device (tests).
  double utility(std::uint32_t device, std::size_t now) const;

 private:
  Options options_;
  std::vector<double> utility_ema_;
  std::vector<std::size_t> last_seen_;
  std::vector<bool> observed_;
};

}  // namespace mach::sampling
