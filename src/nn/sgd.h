// Plain SGD optimiser with optional momentum and weight decay, matching the
// per-device local updating rule of Eq. (4) in the paper.
#pragma once

#include <vector>

#include "nn/model.h"

namespace mach::nn {

struct SgdOptions {
  double learning_rate = 0.01;
  double momentum = 0.0;       // 0 disables the velocity buffer
  double weight_decay = 0.0;   // L2 penalty coefficient
};

class Sgd {
 public:
  explicit Sgd(SgdOptions options) : options_(options) {}

  /// Applies one update to every parameter of `model` using the gradients
  /// currently stored in the layers. Velocity buffers are lazily created and
  /// keyed by parameter order, so a Sgd instance must stay paired with one
  /// model whose layer structure does not change.
  void step(Sequential& model);

  /// Drops velocity state (used when a device re-downloads an edge model).
  void reset() { velocities_.clear(); }

  double learning_rate() const noexcept { return options_.learning_rate; }
  void set_learning_rate(double lr) noexcept { options_.learning_rate = lr; }

 private:
  SgdOptions options_;
  std::vector<std::vector<float>> velocities_;
};

}  // namespace mach::nn
