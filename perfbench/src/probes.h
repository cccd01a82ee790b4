// Outside-in probes: every layer is timed by wrapping or calling the
// program's public interfaces, never by code inside the program.
//
//   * SamplerProbe   — decorating hfl::Sampler. Always records the raw q
//                      vectors for the Eq. 3 and participation checks; in a
//                      traced run it also times decide / observe / refresh.
//   * LayerProbe     — decorating nn::Layer around each layer of the model
//                      the workload trains (same parameter layout), timing
//                      forward/backward in training mode and recording the
//                      input shapes the tensor microbenchmarks replay.
//   * StepTimeline   — RunObserver that turns event timestamps into step
//                      wall times, split by whether a cloud round ran.
//   * SpanRecorder   — obs::SpanProfiler shared by the coordinator and the
//                      worker threads, written as a Chrome trace-event file.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "comm/ledger.h"
#include "hfl/experiment.h"
#include "hfl/sampler.h"
#include "nn/layer.h"
#include "obs/observer.h"
#include "obs/span_profiler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Host-noise counters read beside every run: CPU steal ticks of the whole
/// host (/proc/stat) and this process's involuntary context switches.
struct HostNoise {
  std::uint64_t steal_ticks = 0;
  long involuntary_switches = 0;
};
HostNoise host_noise_now();

/// Process peak resident set size in MiB (ru_maxrss).
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One obs::SpanProfiler for a traced measurement. The coordinator thread is
/// bound to track 0 while recording (which also lets the engine's own
/// passive spans land there); worker threads bind per layer call to tracks
/// 1..workers, assigned on first use.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t workers);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Binds the calling (coordinator) thread and starts recording.
  void start();
  /// Stops recording and unbinds the coordinator.
  void stop();
  bool recording() const noexcept {
    return recording_.load(std::memory_order_relaxed);
  }
  mach::obs::SpanProfiler& profiler() noexcept { return profiler_; }
  /// Track of the calling thread (0 for the coordinator).
  std::uint32_t track_for_this_thread();
  /// Drains worker rings; call only between parallel sections.
  void merge() { profiler_.merge_thread_rings(); }
  bool write(const std::string& path) { return profiler_.write_chrome_trace(path); }

 private:
  mach::obs::SpanProfiler profiler_;
  std::size_t workers_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint32_t> next_worker_{0};
  std::thread::id coordinator_;
  std::optional<mach::obs::SpanProfiler::ThreadScope> coordinator_scope_;
};

// ---------------------------------------------------------------------------
// Sampler probe
// ---------------------------------------------------------------------------

struct SamplerTimes {
  double decide_s = 0.0;
  std::uint64_t decide_calls = 0;
  double observe_s = 0.0;
  std::uint64_t observe_calls = 0;
  double refresh_s = 0.0;
  std::uint64_t refresh_calls = 0;
  /// When the last edge_probabilities call returned (section-start marker).
  Clock::time_point last_decide_end{};

  double total_s() const noexcept { return decide_s + observe_s + refresh_s; }
};

class SamplerProbe final : public mach::hfl::Sampler {
 public:
  /// `transform`, when set, rewrites every q vector the wrapped sampler
  /// returns before it is recorded and handed to the engine (negative
  /// controls only).
  SamplerProbe(mach::hfl::SamplerPtr inner, bool edge_budgeted,
               double min_probability, bool timed,
               std::function<void(std::vector<double>&)> transform = {});

  /// Raised after every decision: the sampled devices of this edge round
  /// train next (see LayerCollector::training_phase).
  void mark_training_phase(std::atomic<bool>* flag) noexcept { phase_ = flag; }

  std::string name() const override { return inner_->name(); }
  void bind(const mach::hfl::FederationInfo& info) override { inner_->bind(info); }
  std::vector<double> edge_probabilities(
      const mach::hfl::EdgeSamplingContext& ctx) override;
  void observe_training(const mach::hfl::TrainingObservation& obs) override;
  void on_cloud_round(std::size_t t) override;
  bool needs_oracle() const override { return inner_->needs_oracle(); }
  void save_state(mach::ckpt::ByteWriter& out) const override {
    inner_->save_state(out);
  }
  void load_state(mach::ckpt::ByteReader& in) override { inner_->load_state(in); }
  bool introspect(mach::obs::SamplerIntrospection& out) const override {
    return inner_->introspect(out);
  }

  const BudgetLedger& budget() const noexcept { return budget_; }
  const SamplerTimes& times() const noexcept { return times_; }

 private:
  mach::hfl::SamplerPtr inner_;
  double min_probability_;
  bool timed_;
  std::function<void(std::vector<double>&)> transform_;
  std::atomic<bool>* phase_ = nullptr;
  BudgetLedger budget_;
  SamplerTimes times_;
};

/// Registry sampler by name, wrapped in a probe with its Eq. 3 contract.
std::unique_ptr<SamplerProbe> make_probed_sampler(const std::string& name,
                                                  double min_probability,
                                                  bool timed);

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

enum class LayerKind : std::uint8_t { Conv2d, Dense, Relu, MaxPool, Flatten };
inline constexpr std::size_t kLayerKinds = 5;
const char* layer_kind_name(LayerKind kind);

/// One distinct training-forward input shape of one layer and how often it
/// ran. Conv2d: input [B, C, H, W] with out channels, kernel and padding;
/// Dense: input [B, in] with out features.
struct LayerShape {
  LayerKind kind = LayerKind::Dense;
  std::array<std::size_t, 4> input{};
  std::size_t out = 0;
  std::size_t kernel = 0;
  std::size_t pad = 0;
  std::uint64_t calls = 0;
};

/// Accumulators of one probe instance. Written only by the thread running
/// the owning model replica (sections are joined before anyone reads).
struct LayerProbeData {
  LayerKind kind = LayerKind::Dense;
  double train_forward_s = 0.0;
  double train_backward_s = 0.0;
  std::vector<LayerShape> shapes;
};

/// Owns every probe's accumulators (stable addresses) for one measurement.
class LayerCollector {
 public:
  explicit LayerCollector(SpanRecorder* spans) : spans_(spans) {}
  LayerProbeData* add(LayerKind kind);
  SpanRecorder* spans() const noexcept { return spans_; }
  /// True between a sampler decision and the end of that edge round. Layer
  /// calls outside it (MACH-P's oracle gradient probes, which run before
  /// the decision) are not device training and are left untimed.
  std::atomic<bool>& training_phase() noexcept { return training_phase_; }
  /// Copies of all accumulators; call when no model is training.
  std::vector<LayerProbeData> snapshot() const;

 private:
  SpanRecorder* spans_;
  std::atomic<bool> training_phase_{false};
  mutable std::mutex mutex_;
  std::deque<LayerProbeData> probes_;
};

/// The config's model (hfl::make_model_factory's architecture) with every
/// layer wrapped in a probe.
mach::hfl::ModelFactory probed_model_factory(const mach::hfl::ExperimentConfig& config,
                                             LayerCollector& collector);

// ---------------------------------------------------------------------------
// Step timeline
// ---------------------------------------------------------------------------

class StepTimeline final : public mach::obs::RunObserver {
 public:
  /// `sampler` (optional) supplies the section-start marker; `workers` is
  /// the engine's worker count (1 = serial).
  StepTimeline(const SamplerProbe* sampler, std::size_t workers,
               std::atomic<bool>* training_phase = nullptr);

  /// Called at every step start, on the coordinator, before the step runs.
  std::function<void(std::size_t t)> at_step_begin;

  void on_step_begin(const mach::obs::StepBeginEvent& event) override;
  void on_device_trained(const mach::obs::DeviceTrainedEvent& event) override;
  void on_edge_aggregated(const mach::obs::EdgeAggregatedEvent& event) override;
  void on_cloud_round(const mach::obs::CloudRoundEvent& event) override;
  void on_eval(const mach::obs::EvalEvent& event) override;
  void on_checkpoint(const mach::obs::CheckpointEvent& event) override;
  void on_run_end(const mach::obs::RunEndEvent& event) override;

  Clock::time_point first_step_time() const noexcept { return first_step_; }

  // Step wall times.
  std::vector<double> edge_step_ms;
  std::vector<double> cloud_step_ms;
  double step_seconds = 0.0;
  // Evaluations (baseline included) and their wall time.
  std::vector<EvalSample> evals;
  double eval_seconds = 0.0;
  double step_eval_seconds = 0.0;  // evaluations inside steps
  std::uint64_t eval_count = 0;
  // Training and sampling.
  std::uint64_t device_updates = 0;
  double train_device_seconds = 0.0;
  std::uint64_t sampled = 0;
  std::uint64_t downlink_rounds = 0;  // edge rounds with >= 1 sampled device
  // Fault layer (events of active schedules).
  std::uint64_t dropped = 0;
  std::uint64_t straggler_arrivals = 0;
  std::uint64_t straggler_timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t expected_uploads = 0;  // (sampled - dropped) + retries
  std::uint64_t cloud_edge_trials = 0;
  std::uint64_t cloud_edges_lost = 0;
  // Checkpoints: on_checkpoint -> next step start.
  std::vector<double> checkpoint_ms;
  // Parallel training sections (edge rounds with >= 2 sampled devices).
  double section_wall_s = 0.0;
  double section_busy_s = 0.0;
  double serial_train_s = 0.0;
  std::uint64_t sections = 0;
  // Run end.
  mach::comm::ByteLedger ledger;
  bool ended = false;

 private:
  void close_step(Clock::time_point now);

  const SamplerProbe* sampler_;
  std::size_t workers_;
  std::atomic<bool>* training_phase_;
  bool started_ = false;
  bool in_step_ = false;
  bool cloud_step_ = false;
  std::size_t active_edges_ = 0;
  Clock::time_point first_step_{};
  Clock::time_point step_start_{};
  std::optional<Clock::time_point> checkpoint_start_;
  // Current edge round.
  std::optional<Clock::time_point> round_first_event_;
  double round_busy_s_ = 0.0;
};

}  // namespace perfbench
