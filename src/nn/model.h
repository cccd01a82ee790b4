// Sequential model with a softmax cross-entropy head, plus flat-parameter
// accessors used by the federated aggregation code.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace mach::nn {

/// Result of a single forward/backward pass over one minibatch.
struct StepStats {
  double loss = 0.0;
  std::size_t correct = 0;
  std::size_t batch_size = 0;
  /// Squared L2 norm of the concatenated parameter gradient — the observable
  /// the paper's statistical/MACH samplers consume (Assumption 3's ||g||^2).
  double grad_squared_norm = 0.0;
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) noexcept = default;
  Sequential& operator=(Sequential&&) noexcept = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// He-initialises every parameterised layer.
  void init_params(common::Rng& rng);

  /// Propagates training/eval mode to every layer (Layer::set_training).
  /// forward_backward() switches to training mode, evaluate() to eval mode;
  /// call this only for custom loops using forward() directly.
  void set_training(bool training);

  /// Forward pass; returns the logits (valid until the next forward).
  const tensor::Tensor& forward(const tensor::Tensor& input);

  /// Forward + loss + backward; gradients are left in the layers' grad
  /// tensors for the optimiser. Labels are class indices.
  StepStats forward_backward(const tensor::Tensor& input, std::span<const int> labels);

  /// Loss/accuracy evaluation without gradient computation.
  StepStats evaluate(const tensor::Tensor& input, std::span<const int> labels);

  /// All parameter handles across layers, in layer order.
  std::vector<ParamRef> params();

  /// Cached parameter handles (built once, invalidated by add()). The hot
  /// path — forward_backward's grad-norm reduction and the optimiser steps —
  /// uses this instead of params() so steady-state training allocates
  /// nothing.
  const std::vector<ParamRef>& param_refs();

  /// Sum of scratch-arena grow events across layers. Flat once training is
  /// warm; the allocation test asserts this.
  std::size_t scratch_grow_events() const;

  /// Total number of scalar parameters.
  std::size_t num_parameters();

  /// Copies all parameters into one flat vector (layer order).
  std::vector<float> get_parameters();
  /// Restores parameters from a flat vector produced by get_parameters().
  void set_parameters(std::span<const float> flat);
  /// Copies all gradients into one flat vector (layer order).
  std::vector<float> get_gradients();

  std::size_t num_layers() const noexcept { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<ParamRef> cached_param_refs_;
  bool param_refs_valid_ = false;
  tensor::Tensor probs_;
  tensor::Tensor grad_logits_;
};

}  // namespace mach::nn
