#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/model.h"
#include "nn/sgd.h"

namespace mach::nn {
namespace {

Sequential small_mlp() {
  Sequential m;
  m.add(std::make_unique<Dense>(4, 8))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(8, 2));
  return m;
}

TEST(Sequential, NumParameters) {
  Sequential m = small_mlp();
  // 4*8 + 8 + 8*2 + 2 = 58
  EXPECT_EQ(m.num_parameters(), 58u);
}

TEST(Sequential, GetSetParametersRoundTrip) {
  Sequential m = small_mlp();
  common::Rng rng(1);
  m.init_params(rng);
  const auto original = m.get_parameters();
  ASSERT_EQ(original.size(), 58u);

  std::vector<float> modified(original.size());
  for (std::size_t i = 0; i < modified.size(); ++i) {
    modified[i] = static_cast<float>(i) * 0.1f;
  }
  m.set_parameters(modified);
  EXPECT_EQ(m.get_parameters(), modified);
  m.set_parameters(original);
  EXPECT_EQ(m.get_parameters(), original);
}

TEST(Sequential, SetParametersValidatesLength) {
  Sequential m = small_mlp();
  std::vector<float> too_short(10, 0.0f);
  EXPECT_THROW(m.set_parameters(too_short), std::invalid_argument);
  std::vector<float> too_long(100, 0.0f);
  EXPECT_THROW(m.set_parameters(too_long), std::invalid_argument);
}

TEST(Sequential, ForwardOnEmptyModelThrows) {
  Sequential m;
  tensor::Tensor x({1, 4});
  EXPECT_THROW(m.forward(x), std::logic_error);
}

TEST(Sequential, EvaluateDoesNotChangeParameters) {
  Sequential m = small_mlp();
  common::Rng rng(2);
  m.init_params(rng);
  const auto before = m.get_parameters();
  tensor::Tensor x({3, 4});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 1, 0};
  m.evaluate(x, labels);
  EXPECT_EQ(m.get_parameters(), before);
}

TEST(Sequential, StepStatsConsistent) {
  Sequential m = small_mlp();
  common::Rng rng(3);
  m.init_params(rng);
  tensor::Tensor x({5, 4});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 1, 0, 1, 1};
  const StepStats stats = m.forward_backward(x, labels);
  EXPECT_EQ(stats.batch_size, 5u);
  EXPECT_LE(stats.correct, 5u);
  EXPECT_GT(stats.loss, 0.0);
  EXPECT_GT(stats.grad_squared_norm, 0.0);

  // grad_squared_norm must equal the norm of the flattened gradient vector.
  double manual = 0.0;
  for (float g : m.get_gradients()) manual += static_cast<double>(g) * g;
  EXPECT_NEAR(stats.grad_squared_norm, manual, 1e-9);
}

/// Identity layer that records the mode Sequential last set on it and the
/// mode in force during its most recent forward pass.
class ModeRecorder final : public Layer {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& input) override {
    forward_mode = training;
    return input;
  }
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override {
    return grad_output;
  }
  void set_training(bool mode) override { training = mode; }
  std::string name() const override { return "ModeRecorder"; }

  std::optional<bool> training;
  std::optional<bool> forward_mode;
};

// Layers that wrap others (the benchmark's per-layer probes) tell training
// passes from evaluation passes only through this hook.
TEST(Sequential, ReportsTrainingModeToEveryLayer) {
  auto first = std::make_unique<ModeRecorder>();
  auto last = std::make_unique<ModeRecorder>();
  const std::vector<ModeRecorder*> recorders = {first.get(), last.get()};
  Sequential m;
  m.add(std::move(first))
      .add(std::make_unique<Dense>(4, 2))
      .add(std::move(last));
  common::Rng rng(3);
  m.init_params(rng);
  tensor::Tensor x({3, 4});
  for (auto& v : x.flat()) v = 0.5f;
  const std::vector<int> labels = {0, 1, 0};

  m.forward_backward(x, labels);
  for (const ModeRecorder* r : recorders) {
    EXPECT_EQ(r->training, std::optional<bool>(true));
    EXPECT_EQ(r->forward_mode, std::optional<bool>(true));
  }
  m.evaluate(x, labels);
  for (const ModeRecorder* r : recorders) {
    EXPECT_EQ(r->training, std::optional<bool>(false));
    EXPECT_EQ(r->forward_mode, std::optional<bool>(false));
  }
  m.forward_backward(x, labels);
  for (const ModeRecorder* r : recorders) {
    EXPECT_EQ(r->forward_mode, std::optional<bool>(true));
  }
}

TEST(Sgd, SingleStepMatchesManualUpdate) {
  Sequential m;
  m.add(std::make_unique<Dense>(2, 1));
  auto params = m.params();
  params[0].value->flat()[0] = 1.0f;
  params[0].value->flat()[1] = 2.0f;
  params[1].value->flat()[0] = 0.5f;
  params[0].grad->flat()[0] = 0.1f;
  params[0].grad->flat()[1] = -0.2f;
  params[1].grad->flat()[0] = 0.3f;

  Sgd sgd({.learning_rate = 0.5});
  sgd.step(m);
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], 1.0f - 0.5f * 0.1f);
  EXPECT_FLOAT_EQ(params[0].value->flat()[1], 2.0f + 0.5f * 0.2f);
  EXPECT_FLOAT_EQ(params[1].value->flat()[0], 0.5f - 0.5f * 0.3f);
}

TEST(Sgd, WeightDecayShrinksParameters) {
  Sequential m;
  m.add(std::make_unique<Dense>(1, 1));
  auto params = m.params();
  params[0].value->flat()[0] = 2.0f;
  params[0].grad->flat()[0] = 0.0f;
  params[1].value->flat()[0] = 0.0f;
  params[1].grad->flat()[0] = 0.0f;
  Sgd sgd({.learning_rate = 0.1, .momentum = 0.0, .weight_decay = 0.5});
  sgd.step(m);
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], 2.0f - 0.1f * 0.5f * 2.0f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Sequential m;
  m.add(std::make_unique<Dense>(1, 1));
  auto params = m.params();
  params[0].value->flat()[0] = 0.0f;
  params[1].value->flat()[0] = 0.0f;
  params[0].grad->flat()[0] = 1.0f;
  params[1].grad->flat()[0] = 0.0f;
  Sgd sgd({.learning_rate = 1.0, .momentum = 0.5});
  sgd.step(m);  // v=1, w=-1
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], -1.0f);
  sgd.step(m);  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], -2.5f);
  sgd.reset();
  sgd.step(m);  // v resets to 1 -> w=-3.5
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], -3.5f);
}

TEST(Training, LossDecreasesOnSeparableData) {
  // Two Gaussian blobs in 4-D, labels 0/1: a few SGD epochs must cut loss.
  common::Rng rng(7);
  Sequential m = small_mlp();
  m.init_params(rng);
  const std::size_t n = 64;
  tensor::Tensor x({n, 4});
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 2);
    const double center = labels[i] == 0 ? -1.5 : 1.5;
    for (std::size_t j = 0; j < 4; ++j) {
      x.at2(i, j) = static_cast<float>(rng.normal(center, 0.5));
    }
  }
  Sgd sgd({.learning_rate = 0.1});
  const double initial_loss = m.evaluate(x, labels).loss;
  for (int epoch = 0; epoch < 50; ++epoch) {
    m.forward_backward(x, labels);
    sgd.step(m);
  }
  const StepStats final = m.evaluate(x, labels);
  EXPECT_LT(final.loss, initial_loss * 0.5);
  EXPECT_GT(static_cast<double>(final.correct) / n, 0.95);
}

TEST(Factory, Cnn2RejectsBadDimensions) {
  EXPECT_THROW(make_cnn2(1, 10, 12, 10), std::invalid_argument);
  EXPECT_NO_THROW(make_cnn2(1, 12, 12, 10));
}

TEST(Factory, Cnn3RejectsBadDimensions) {
  EXPECT_THROW(make_cnn3(3, 12, 16, 10), std::invalid_argument);
  EXPECT_NO_THROW(make_cnn3(3, 16, 16, 10));
}

TEST(Factory, MlpShapes) {
  Sequential m = make_mlp(10, 6, 3);
  common::Rng rng(8);
  m.init_params(rng);
  tensor::Tensor x({2, 10});
  EXPECT_EQ(m.forward(x).shape(), (std::vector<std::size_t>{2, 3}));
}

}  // namespace
}  // namespace mach::nn
