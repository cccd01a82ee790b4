// Layer abstraction for the from-scratch neural-network substrate.
//
// The simulator trains hundreds of small per-device models, so layers cache
// their activations internally and reuse buffers across steps; a fresh
// forward() invalidates the previous backward() state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace mach::nn {

/// Non-owning handle to one parameter tensor and its gradient accumulator.
struct ParamRef {
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
  std::string name;
};

class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Runs the layer on `input`, returning a reference to the cached output.
  /// The reference stays valid until the next forward() on this layer.
  virtual const tensor::Tensor& forward(const tensor::Tensor& input) = 0;

  /// Backpropagates `grad_output` (shape of the last forward output), filling
  /// parameter gradients and returning a reference to the cached input grad.
  virtual const tensor::Tensor& backward(const tensor::Tensor& grad_output) = 0;

  /// Parameter handles; empty for stateless layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Randomises parameters (He initialisation for ReLU nets). Stateless
  /// layers ignore it.
  virtual void init_params(common::Rng& /*rng*/) {}

  /// Toggles training-time behaviour. No built-in layer behaves differently
  /// in the two modes; the hook stays because Sequential reports the mode
  /// through it (training in forward_backward(), eval in evaluate()) and
  /// decorating layers, such as the benchmark's per-layer probes, override
  /// it to tell training passes from evaluation passes.
  virtual void set_training(bool /*training*/) {}

  /// The layer's scratch arena, if it owns one (Conv2D does). Exposed so the
  /// allocation test can assert the arenas stop growing once training is
  /// warm.
  virtual const tensor::ScratchArena* scratch_arena() const { return nullptr; }

  virtual std::string name() const = 0;

 protected:
  Layer() = default;
};

}  // namespace mach::nn
