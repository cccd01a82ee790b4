#include "probes.h"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/registry.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"

namespace perfbench {

namespace mhfl = mach::hfl;
namespace nn = mach::nn;
namespace obs = mach::obs;

HostNoise host_noise_now() {
  HostNoise noise;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (stat && std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream fields(line.substr(4));
    std::uint64_t value = 0;
    // user nice system idle iowait irq softirq steal ...
    for (int column = 0; column < 8 && (fields >> value); ++column) {
      if (column == 7) noise.steal_ticks = value;
    }
  }
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    noise.involuntary_switches = usage.ru_nivcsw;
  }
  return noise;
}

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

namespace {
// Worker-thread track cache. Pool threads are reused across sections and
// recreated per simulator; assignment cycles through 1..workers, so the at
// most `workers` pool threads alive at once always hold distinct tracks.
thread_local const SpanRecorder* tls_owner = nullptr;
thread_local std::uint32_t tls_track = 0;
}  // namespace

SpanRecorder::SpanRecorder(std::size_t workers)
    : profiler_(1 + std::max<std::size_t>(workers, 1), 1 << 16),
      workers_(std::max<std::size_t>(workers, 1)) {}

void SpanRecorder::start() {
  coordinator_ = std::this_thread::get_id();
  coordinator_scope_.emplace(&profiler_, 0);
  recording_.store(true, std::memory_order_relaxed);
}

void SpanRecorder::stop() {
  recording_.store(false, std::memory_order_relaxed);
  coordinator_scope_.reset();
  profiler_.merge_thread_rings();
}

std::uint32_t SpanRecorder::track_for_this_thread() {
  if (std::this_thread::get_id() == coordinator_) return 0;
  if (tls_owner != this) {
    tls_owner = this;
    tls_track = 1 + static_cast<std::uint32_t>(
                        next_worker_.fetch_add(1, std::memory_order_relaxed) %
                        workers_);
  }
  return tls_track;
}

// ---------------------------------------------------------------------------
// SamplerProbe
// ---------------------------------------------------------------------------

SamplerProbe::SamplerProbe(mhfl::SamplerPtr inner, bool edge_budgeted,
                           double min_probability, bool timed,
                           std::function<void(std::vector<double>&)> transform)
    : inner_(std::move(inner)),
      min_probability_(min_probability),
      timed_(timed),
      transform_(std::move(transform)) {
  budget_.edge_budgeted = edge_budgeted;
}

std::vector<double> SamplerProbe::edge_probabilities(
    const mhfl::EdgeSamplingContext& ctx) {
  const Clock::time_point start = timed_ ? Clock::now() : Clock::time_point{};
  std::vector<double> q = inner_->edge_probabilities(ctx);
  if (timed_) {
    times_.last_decide_end = Clock::now();
    times_.decide_s += seconds_between(start, times_.last_decide_end);
    ++times_.decide_calls;
  }
  if (transform_) transform_(q);
  budget_.record(q, ctx.capacity, min_probability_);
  if (phase_ != nullptr) phase_->store(true, std::memory_order_relaxed);
  return q;
}

void SamplerProbe::observe_training(const mhfl::TrainingObservation& obs) {
  if (!timed_) {
    inner_->observe_training(obs);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->observe_training(obs);
  times_.observe_s += seconds_between(start, Clock::now());
  ++times_.observe_calls;
}

void SamplerProbe::on_cloud_round(std::size_t t) {
  if (!timed_) {
    inner_->on_cloud_round(t);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->on_cloud_round(t);
  times_.refresh_s += seconds_between(start, Clock::now());
  ++times_.refresh_calls;
}

std::unique_ptr<SamplerProbe> make_probed_sampler(const std::string& name,
                                                  double min_probability,
                                                  bool timed) {
  for (const auto& info : mach::core::sampler_registry()) {
    if (name == info.name) {
      return std::make_unique<SamplerProbe>(mach::core::make_sampler(name),
                                            info.edge_budgeted, min_probability,
                                            timed);
    }
  }
  throw std::invalid_argument("perfbench: unknown sampler " + name);
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

namespace {

/// Metric and span names per layer kind (span names must outlive the
/// profiler, hence literals).
struct KindNames {
  const char* name;
  const char* forward_span;
  const char* backward_span;
};

constexpr KindNames kKindNames[kLayerKinds] = {
    {"conv2d", "nn.conv2d.forward", "nn.conv2d.backward"},
    {"dense", "nn.dense.forward", "nn.dense.backward"},
    {"relu", "nn.relu.forward", "nn.relu.backward"},
    {"maxpool", "nn.maxpool.forward", "nn.maxpool.backward"},
    {"flatten", "nn.flatten.forward", "nn.flatten.backward"},
};

const KindNames& names_of(LayerKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

class LayerProbe final : public nn::Layer {
 public:
  LayerProbe(std::unique_ptr<nn::Layer> inner, LayerKind kind,
             LayerCollector& collector)
      : inner_(std::move(inner)),
        kind_(kind),
        spans_(collector.spans()),
        phase_(&collector.training_phase()),
        data_(collector.add(kind)) {
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(inner_.get())) {
      out_ = conv->spec().out_channels;
      kernel_ = conv->spec().kernel;
      pad_ = conv->spec().pad;
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(inner_.get())) {
      out_ = dense->out_features();
    }
  }

  const mach::tensor::Tensor& forward(const mach::tensor::Tensor& input) override {
    if (!training_ || !phase_->load(std::memory_order_relaxed)) {
      return inner_->forward(input);
    }
    std::optional<obs::SpanProfiler::ThreadScope> scope;
    std::optional<obs::SpanGuard> span;
    if (spans_ != nullptr && spans_->recording()) {
      scope.emplace(&spans_->profiler(), spans_->track_for_this_thread());
      span.emplace(names_of(kind_).forward_span);
    }
    const Clock::time_point start = Clock::now();
    const mach::tensor::Tensor& out = inner_->forward(input);
    data_->train_forward_s += seconds_between(start, Clock::now());
    record_shape(input);
    return out;
  }

  const mach::tensor::Tensor& backward(const mach::tensor::Tensor& grad) override {
    if (!phase_->load(std::memory_order_relaxed)) return inner_->backward(grad);
    std::optional<obs::SpanProfiler::ThreadScope> scope;
    std::optional<obs::SpanGuard> span;
    if (spans_ != nullptr && spans_->recording()) {
      scope.emplace(&spans_->profiler(), spans_->track_for_this_thread());
      span.emplace(names_of(kind_).backward_span);
    }
    const Clock::time_point start = Clock::now();
    const mach::tensor::Tensor& out = inner_->backward(grad);
    data_->train_backward_s += seconds_between(start, Clock::now());
    return out;
  }

  std::vector<nn::ParamRef> params() override { return inner_->params(); }
  void init_params(mach::common::Rng& rng) override { inner_->init_params(rng); }
  void set_training(bool training) override {
    training_ = training;
    inner_->set_training(training);
  }
  const mach::tensor::ScratchArena* scratch_arena() const override {
    return inner_->scratch_arena();
  }
  std::string name() const override { return inner_->name(); }

 private:
  void record_shape(const mach::tensor::Tensor& input) {
    if (kind_ != LayerKind::Conv2d && kind_ != LayerKind::Dense) return;
    std::array<std::size_t, 4> dims{};
    for (std::size_t i = 0; i < input.rank() && i < 4; ++i) dims[i] = input.dim(i);
    auto& shapes = data_->shapes;
    if (last_ < shapes.size() && shapes[last_].input == dims) {
      ++shapes[last_].calls;
      return;
    }
    for (last_ = 0; last_ < shapes.size(); ++last_) {
      if (shapes[last_].input == dims) {
        ++shapes[last_].calls;
        return;
      }
    }
    shapes.push_back(LayerShape{kind_, dims, out_, kernel_, pad_, 1});
  }

  std::unique_ptr<nn::Layer> inner_;
  LayerKind kind_;
  SpanRecorder* spans_;
  const std::atomic<bool>* phase_;
  LayerProbeData* data_;
  bool training_ = true;
  std::size_t out_ = 0;
  std::size_t kernel_ = 0;
  std::size_t pad_ = 0;
  std::size_t last_ = 0;
};

}  // namespace

const char* layer_kind_name(LayerKind kind) { return names_of(kind).name; }

LayerProbeData* LayerCollector::add(LayerKind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  probes_.emplace_back();
  probes_.back().kind = kind;
  return &probes_.back();
}

std::vector<LayerProbeData> LayerCollector::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {probes_.begin(), probes_.end()};
}

mhfl::ModelFactory probed_model_factory(const mhfl::ExperimentConfig& config,
                                        LayerCollector& collector) {
  // Mirrors hfl::make_model_factory and nn::make_cnn2 / make_cnn3 layer for
  // layer; the harness checks that both give bitwise-identical parameters
  // from the same initialisation stream.
  const auto& spec = config.data_spec;
  const auto is_cifar = config.task == mach::data::TaskKind::CifarLike;
  const auto model_kind = config.model;
  const std::size_t hidden_mlp = config.mlp_hidden;
  return [&collector, spec, is_cifar, model_kind, hidden_mlp] {
    nn::Sequential model;
    const auto add = [&](std::unique_ptr<nn::Layer> layer, LayerKind kind) {
      model.add(std::make_unique<LayerProbe>(std::move(layer), kind, collector));
    };
    if (model_kind == mhfl::ModelKind::Mlp) {
      add(std::make_unique<nn::Flatten>(), LayerKind::Flatten);
      add(std::make_unique<nn::Dense>(spec.channels * spec.height * spec.width,
                                      hidden_mlp),
          LayerKind::Dense);
      add(std::make_unique<nn::ReLU>(), LayerKind::Relu);
      add(std::make_unique<nn::Dense>(hidden_mlp, spec.classes), LayerKind::Dense);
      return model;
    }
    const std::vector<std::size_t> channels =
        is_cifar ? std::vector<std::size_t>{8, 16, 32}
                 : std::vector<std::size_t>{8, 16};
    const std::size_t hidden = is_cifar ? 64 : 32;
    std::size_t in = spec.channels;
    for (const std::size_t out : channels) {
      add(std::make_unique<nn::Conv2D>(in, out, 3, 1), LayerKind::Conv2d);
      add(std::make_unique<nn::ReLU>(), LayerKind::Relu);
      add(std::make_unique<nn::MaxPool2x2>(), LayerKind::MaxPool);
      in = out;
    }
    const std::size_t shrink = std::size_t{1} << channels.size();
    add(std::make_unique<nn::Flatten>(), LayerKind::Flatten);
    add(std::make_unique<nn::Dense>(in * (spec.height / shrink) * (spec.width / shrink),
                                    hidden),
        LayerKind::Dense);
    add(std::make_unique<nn::ReLU>(), LayerKind::Relu);
    add(std::make_unique<nn::Dense>(hidden, spec.classes), LayerKind::Dense);
    return model;
  };
}

// ---------------------------------------------------------------------------
// StepTimeline
// ---------------------------------------------------------------------------

StepTimeline::StepTimeline(const SamplerProbe* sampler, std::size_t workers,
                           std::atomic<bool>* training_phase)
    : sampler_(sampler), workers_(workers), training_phase_(training_phase) {}

void StepTimeline::close_step(Clock::time_point now) {
  if (checkpoint_start_) {
    checkpoint_ms.push_back(seconds_between(*checkpoint_start_, now) * 1e3);
    checkpoint_start_.reset();
  }
  if (!in_step_) return;
  const double seconds = seconds_between(step_start_, now);
  (cloud_step_ ? cloud_step_ms : edge_step_ms).push_back(seconds * 1e3);
  step_seconds += seconds;
  in_step_ = false;
}

void StepTimeline::on_step_begin(const obs::StepBeginEvent& event) {
  const Clock::time_point now = Clock::now();
  if (!started_) {
    started_ = true;
    first_step_ = now;
  }
  close_step(now);
  // The hook (span merges, parameter captures) is charged to no step.
  if (at_step_begin) at_step_begin(event.t);
  in_step_ = true;
  cloud_step_ = false;
  active_edges_ = event.active_edges;
  step_start_ = Clock::now();
}

void StepTimeline::on_device_trained(const obs::DeviceTrainedEvent& event) {
  ++device_updates;
  train_device_seconds += event.seconds;
  if (sampler_ != nullptr && !round_first_event_) round_first_event_ = Clock::now();
  round_busy_s_ += event.seconds;
}

void StepTimeline::on_edge_aggregated(const obs::EdgeAggregatedEvent& event) {
  const double busy = round_busy_s_;
  const std::optional<Clock::time_point> first_event = round_first_event_;
  round_busy_s_ = 0.0;
  round_first_event_.reset();
  if (training_phase_ != nullptr) {
    training_phase_->store(false, std::memory_order_relaxed);
  }
  if (event.faults.edge_outage) return;
  sampled += event.num_sampled;
  if (event.num_sampled > 0) ++downlink_rounds;
  if (event.faults.active) {
    dropped += event.faults.num_dropped;
    straggler_arrivals += event.faults.num_straggler_arrivals;
    straggler_timeouts += event.faults.num_straggler_timeouts;
    retries += event.faults.num_retries;
    expected_uploads +=
        (event.num_sampled - event.faults.num_dropped) + event.faults.num_retries;
  } else {
    expected_uploads += event.num_sampled;
  }
  if (sampler_ != nullptr && workers_ > 1 && event.num_sampled > 1) {
    const Clock::time_point end = first_event.value_or(Clock::now());
    section_wall_s += seconds_between(sampler_->times().last_decide_end, end);
    section_busy_s += busy;
    ++sections;
  } else {
    serial_train_s += busy;
  }
}

void StepTimeline::on_cloud_round(const obs::CloudRoundEvent& event) {
  cloud_step_ = true;
  if (event.faults_active) {
    cloud_edge_trials += active_edges_;
    cloud_edges_lost += event.lost_edges.size();
  }
}

void StepTimeline::on_eval(const obs::EvalEvent& event) {
  evals.push_back(EvalSample{event.t, event.test_accuracy});
  eval_seconds += event.seconds;
  if (in_step_) step_eval_seconds += event.seconds;
  ++eval_count;
}

void StepTimeline::on_checkpoint(const obs::CheckpointEvent& /*event*/) {
  checkpoint_start_ = Clock::now();
}

void StepTimeline::on_run_end(const obs::RunEndEvent& event) {
  close_step(Clock::now());
  if (event.ledger != nullptr) ledger = *event.ledger;
  ended = true;
}

}  // namespace perfbench
