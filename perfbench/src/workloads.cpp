#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "ckpt/bytes.h"
#include "ckpt/file.h"
#include "ckpt/manager.h"
#include "comm/codec.h"
#include "common/rng.h"
#include "core/registry.h"
#include "core/scale_sim.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "mobility/mobility_model.h"
#include "mobility/stations.h"
#include "mobility/stream.h"
#include "mobility/trace.h"
#include "probes.h"
#include "runtime/parallel_config.h"
#include "sampling/fenwick.h"
#include "tensor/kernels/kernels.h"

namespace perfbench {

namespace {

namespace mhfl = mach::hfl;
namespace fs = std::filesystem;
using mach::common::split_seed;

// ---------------------------------------------------------------------------
// Workload constants. Why each workload exists is in BENCHMARK.json; the
// figures that chose these values are in README.md.
// ---------------------------------------------------------------------------

/// paper_cnn: worker threads (capped at the host's hardware threads), steps
/// per run (4 cloud rounds at T_g = 5) and the thread-invariance prefix,
/// which covers the cloud folds at t = 0 and t = 5.
constexpr std::size_t kPaperWorkers = 4;
constexpr std::size_t kPaperSteps = 20;
constexpr std::size_t kPaperPrefixSteps = 6;
/// Set-up passes per run; setup_s is their median.
constexpr std::size_t kPaperSetupPasses = 7;
constexpr std::size_t kGridSetupPasses = 5;
constexpr std::size_t kScaleSetupPasses = 7;
constexpr std::size_t kResilientSetupPasses = 31;
/// fig3_smoke: run seeds per (task, sampler), as bench/fig3 averages.
constexpr std::size_t kGridSeeds = 2;
/// scale_1m population.
constexpr std::size_t kScaleDevices = 1'000'000;
constexpr std::size_t kScaleEdges = 1'000;
/// Rounds replayed after a mid-run save/load.
constexpr std::size_t kScaleReplayRounds = 5;
/// resilient_cifar fault and codec specs (the --faults / --codec grammars).
constexpr const char* kResilientFaults =
    "dropout:p=0.1;straggler:p=0.2,timeout=1.5;cloud_loss:p=0.05";
constexpr const char* kResilientCodecs = "up=int8,down=bf16";
/// Steps of each traced run whose spans are written to the trace file.
constexpr std::size_t kSpanSteps = 8;
/// Edge steps needed before the p95 of edge steps is reported.
constexpr std::size_t kTailSamples = 200;

/// Metric tables, in the order BENCHMARK.json lists them; layers a workload
/// bypasses read 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"steps_per_s", "1/s"},
    {"device_updates_per_s", "1/s"},
    {"edge_step_p50_ms", "ms"},
    {"cloud_step_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"nn.forward_ms_per_update", "ms"},
    {"nn.backward_ms_per_update", "ms"},
    {"nn.optimizer_ms_per_update", "ms"},
    {"nn.conv2d.forward_ms_per_update", "ms"},
    {"nn.conv2d.backward_ms_per_update", "ms"},
    {"nn.dense.forward_ms_per_update", "ms"},
    {"nn.dense.backward_ms_per_update", "ms"},
    {"nn.relu.forward_ms_per_update", "ms"},
    {"nn.relu.backward_ms_per_update", "ms"},
    {"nn.maxpool.forward_ms_per_update", "ms"},
    {"nn.maxpool.backward_ms_per_update", "ms"},
    {"tensor.gemm_flops_per_update", "count"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.im2col_gbps", "GB/s"},
    {"runtime.worker_busy_share", "fraction"},
    {"runtime.barrier_wait_ms_per_step", "ms"},
    {"hfl.construct_s", "s"},
    {"hfl.self_ms_per_step", "ms"},
    {"hfl.eval_ms_per_eval", "ms"},
    {"hfl.device_updates", "count"},
    {"sampling.decide_us_per_edge", "us"},
    {"sampling.observe_us_per_update", "us"},
    {"sampling.refresh_us_per_cloud_round", "us"},
    {"sampling.draw_us_per_edge", "us"},
    {"core.construct_s", "s"},
    {"core.movers_per_round", "count"},
    {"core.weight_rebuilds_per_round", "count"},
    {"core.participants_per_round", "count"},
    {"core.state_mb", "MB"},
    {"data.generate_s", "s"},
    {"data.partition_s", "s"},
    {"mobility.schedule_s", "s"},
    {"mobility.advance_ms_per_round", "ms"},
    {"comm.upload_bytes_per_update", "B"},
    {"comm.download_bytes_per_update", "B"},
    {"comm.encode_us_per_msg", "us"},
    {"comm.decode_us_per_msg", "us"},
    {"fault.dropped", "count"},
    {"fault.straggler_timeouts", "count"},
    {"fault.retries", "count"},
    {"ckpt.snapshot_bytes", "B"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.resume_ms", "ms"},
    {"obs.bench_trace_overhead_pct", "%"},
    {"quality.steps_to_target", "steps"},
    {"quality.final_accuracy", "fraction"},
    {"step.edge_p95_ms", "ms"},
    {"host.steal_ticks", "count"},
    {"host.involuntary_ctx_switches", "count"},
};

using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(std::max<std::size_t>(rank, 1), values.size()) - 1];
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Repeats whole units until the next one would overrun `seconds` (at least
/// one unit). Returns the number of units run.
std::size_t run_units(double seconds, const std::function<void(std::size_t)>& unit) {
  const Clock::time_point start = Clock::now();
  std::size_t units = 0;
  for (;;) {
    unit(units);
    ++units;
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed + elapsed / static_cast<double>(units) > seconds) break;
  }
  return units;
}

Check fold_checks(const std::string& name, const std::vector<Check>& checks) {
  for (const Check& check : checks) {
    if (!check.ok) return Check{name, false, check.name + ": " + check.detail};
  }
  return Check{name, !checks.empty(),
               std::to_string(checks.size()) + " checks passed"};
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Set-up time split by layer (traced set-up passes only).
struct SetupParts {
  double generate_s = 0.0;
  double partition_s = 0.0;
  double schedule_s = 0.0;
  double construct_s = 0.0;
};

/// hfl::build_experiment call for call, timing each layer. The traced run
/// checks the result bitwise against build_experiment.
mhfl::ExperimentArtifacts build_world_timed(const mhfl::ExperimentConfig& config,
                                            SetupParts& parts) {
  namespace data = mach::data;
  namespace mobility = mach::mobility;
  const Clock::time_point start = Clock::now();
  data::SyntheticGenerator generator(config.data_spec,
                                     split_seed(config.data_seed, 0x9e1));
  mach::common::Rng data_rng(split_seed(config.data_seed, 0x9e2));
  const auto global_weights =
      data::long_tailed_weights(config.data_spec.classes, config.long_tail_ratio);
  data::Dataset train = generator.generate(
      config.num_devices * config.train_per_device, global_weights, data_rng);
  data::Dataset test = generator.generate_uniform(config.test_examples, data_rng);
  const Clock::time_point generated = Clock::now();

  mach::common::Rng part_rng(split_seed(config.data_seed, 0x9e3));
  data::Partition partition = data::partition_long_tailed(
      train, config.num_devices, config.long_tail_ratio, part_rng);
  if (config.redundant_fraction > 0.0) {
    mach::common::Rng redundancy_rng(split_seed(config.data_seed, 0x9e7));
    data::apply_redundancy(partition, config.redundant_fraction,
                           config.redundant_keep, redundancy_rng);
  }
  const Clock::time_point partitioned = Clock::now();

  mobility::StationLayoutSpec layout;
  layout.num_stations = config.num_stations;
  layout.num_hotspots = config.num_hotspots;
  layout.area_size = config.area_size;
  layout.hotspot_stddev = config.hotspot_stddev;
  layout.background_fraction = config.background_fraction;
  auto stations =
      mobility::generate_stations(layout, split_seed(config.data_seed, 0x9e4));
  const auto clustering = mobility::cluster_stations(
      stations, config.num_edges, split_seed(config.data_seed, 0x9e5));
  mobility::MarkovMobilityModel model(std::move(stations), config.stay_prob,
                                      config.move_range);
  const mobility::Trace trace = mobility::generate_trace(
      model, config.num_devices, std::max<std::size_t>(config.horizon, 1),
      split_seed(config.data_seed, 0x9e6));
  const mobility::TraceReplay replay(trace);
  auto schedule = mobility::MobilitySchedule::from_trace(replay, clustering);
  const Clock::time_point scheduled = Clock::now();

  parts.generate_s += seconds_between(start, generated);
  parts.partition_s += seconds_between(generated, partitioned);
  parts.schedule_s += seconds_between(partitioned, scheduled);
  return mhfl::ExperimentArtifacts{std::move(train), std::move(test),
                                   std::move(partition), std::move(schedule)};
}

bool same_tensor(const mach::tensor::Tensor& a, const mach::tensor::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.flat().size() * sizeof(float)) == 0;
}

bool same_dataset(const mach::data::Dataset& a, const mach::data::Dataset& b) {
  return a.num_classes() == b.num_classes() &&
         same_tensor(a.features(), b.features()) &&
         std::equal(a.labels().begin(), a.labels().end(), b.labels().begin(),
                    b.labels().end());
}

Check check_world_replica(const mhfl::ExperimentConfig& config) {
  SetupParts ignored;
  const auto timed = build_world_timed(config, ignored);
  const auto reference = mhfl::build_experiment(config);
  bool ok = same_dataset(timed.train, reference.train) &&
            same_dataset(timed.test, reference.test) &&
            timed.partition == reference.partition &&
            timed.schedule.num_edges() == reference.schedule.num_edges() &&
            timed.schedule.horizon() == reference.schedule.horizon();
  for (std::size_t t = 0; ok && t < reference.schedule.horizon(); ++t) {
    ok = timed.schedule.devices_per_edge(t) == reference.schedule.devices_per_edge(t);
  }
  return Check{"world_replica", ok,
               ok ? "timed world build equals hfl::build_experiment"
                  : "timed world build differs from hfl::build_experiment"};
}

/// The probed model has the program's parameter layout: same count, and the
/// same flat parameters from the same initialisation stream.
Check check_probe_layout(const mhfl::ExperimentConfig& config) {
  LayerCollector collector(nullptr);
  mach::nn::Sequential reference = mhfl::make_model_factory(config)();
  mach::nn::Sequential probed = probed_model_factory(config, collector)();
  mach::common::Rng rng_a(config.seed);
  mach::common::Rng rng_b(config.seed);
  reference.init_params(rng_a);
  probed.init_params(rng_b);
  Check check = check_bitwise_equal("probe_layout", reference.get_parameters(),
                                    probed.get_parameters());
  check.detail += " (layer probes vs hfl::make_model_factory)";
  return check;
}

std::size_t workers_of(const mhfl::ExperimentConfig& config) {
  return mach::runtime::resolve_threads(config.hfl.parallel);
}

/// One set-up: world, engine, and the run's preamble up to its first step (a
/// zero-step run: sampler bind and the baseline evaluation). `parts` selects
/// the layer-timed world build.
double setup_once(const mhfl::ExperimentConfig& config, const std::string& sampler_name,
                  SetupParts* parts) {
  const Clock::time_point start = Clock::now();
  mhfl::ExperimentArtifacts world = parts != nullptr
                                        ? build_world_timed(config, *parts)
                                        : mhfl::build_experiment(config);
  mhfl::HflOptions options = config.hfl;
  options.seed = config.seed;
  const Clock::time_point construct = Clock::now();
  mhfl::HflSimulator sim(world.train, world.test, std::move(world.partition),
                         world.schedule, mhfl::make_model_factory(config), options);
  if (parts != nullptr) parts->construct_s += seconds_between(construct, Clock::now());
  auto sampler = make_probed_sampler(sampler_name, options.min_probability, false);
  StepTimeline timeline(nullptr, 1);
  sim.set_observer(&timeline);
  sim.run(*sampler, 0);
  return seconds_between(start, Clock::now());
}

struct SetupStats {
  double seconds = 0.0;  // median pass total
  SetupParts parts;      // per-layer medians (traced passes)
};

SetupStats measure_setup(std::size_t passes, bool traced,
                         const std::function<double(SetupParts*)>& pass) {
  std::vector<double> totals, generate, partition, schedule, construct;
  for (std::size_t i = 0; i < passes; ++i) {
    SetupParts parts;
    totals.push_back(pass(traced ? &parts : nullptr));
    generate.push_back(parts.generate_s);
    partition.push_back(parts.partition_s);
    schedule.push_back(parts.schedule_s);
    construct.push_back(parts.construct_s);
  }
  return SetupStats{median(totals),
                    SetupParts{median(generate), median(partition),
                               median(schedule), median(construct)}};
}

// ---------------------------------------------------------------------------
// HFL runs
// ---------------------------------------------------------------------------

struct Tracing {
  SpanRecorder* spans = nullptr;
  LayerCollector* layers = nullptr;
  bool spans_pending = true;  // record spans of the next run's first steps
};

struct HflRun {
  mhfl::MetricsRecorder metrics;
  std::vector<float> final_global;
  std::unique_ptr<SamplerProbe> sampler;
  std::unique_ptr<StepTimeline> timeline;
};

using Prepare = std::function<void(mhfl::HflSimulator&, StepTimeline&)>;

HflRun run_hfl(const mhfl::ExperimentConfig& config, const std::string& sampler_name,
               std::size_t steps, Tracing* tracing, const Prepare& prepare = {}) {
  HflRun out;
  mhfl::ExperimentArtifacts world = mhfl::build_experiment(config);
  mhfl::HflOptions options = config.hfl;
  options.seed = config.seed;
  const bool traced = tracing != nullptr;
  mhfl::HflSimulator sim(world.train, world.test, std::move(world.partition),
                         world.schedule,
                         traced ? probed_model_factory(config, *tracing->layers)
                                : mhfl::make_model_factory(config),
                         options);
  out.sampler = make_probed_sampler(sampler_name, options.min_probability, traced);
  std::atomic<bool>* phase = traced ? &tracing->layers->training_phase() : nullptr;
  out.sampler->mark_training_phase(phase);
  out.timeline = std::make_unique<StepTimeline>(traced ? out.sampler.get() : nullptr,
                                                workers_of(config), phase);
  SpanRecorder* spans = traced ? tracing->spans : nullptr;
  if (spans != nullptr) {
    out.timeline->at_step_begin = [spans](std::size_t t) {
      if (!spans->recording()) return;
      spans->merge();
      if (t >= kSpanSteps) spans->stop();
    };
    if (tracing->spans_pending) {
      tracing->spans_pending = false;
      spans->start();
    }
  }
  if (prepare) prepare(sim, *out.timeline);
  sim.set_observer(out.timeline.get());
  out.metrics = sim.run(*out.sampler, steps);
  if (spans != nullptr && spans->recording()) spans->stop();
  out.final_global = sim.global_parameters();
  return out;
}

/// Everything the metrics need from a set of runs.
struct RunTotals {
  std::size_t runs = 0;
  std::uint64_t steps = 0;
  double step_seconds = 0.0;
  std::vector<double> edge_ms;
  std::vector<double> cloud_ms;
  std::uint64_t device_updates = 0;
  std::uint64_t downlink_rounds = 0;
  double train_device_seconds = 0.0;
  double eval_seconds = 0.0;
  double step_eval_seconds = 0.0;
  std::uint64_t eval_count = 0;
  SamplerTimes sampler;
  double section_wall_s = 0.0;
  double section_busy_s = 0.0;
  double serial_train_s = 0.0;
  std::vector<double> checkpoint_ms;
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t straggler_timeouts = 0;
  std::uint64_t retries = 0;

  void add(const HflRun& run) {
    const StepTimeline& tl = *run.timeline;
    ++runs;
    steps += tl.edge_step_ms.size() + tl.cloud_step_ms.size();
    step_seconds += tl.step_seconds;
    edge_ms.insert(edge_ms.end(), tl.edge_step_ms.begin(), tl.edge_step_ms.end());
    cloud_ms.insert(cloud_ms.end(), tl.cloud_step_ms.begin(), tl.cloud_step_ms.end());
    device_updates += tl.device_updates;
    downlink_rounds += tl.downlink_rounds;
    train_device_seconds += tl.train_device_seconds;
    eval_seconds += tl.eval_seconds;
    step_eval_seconds += tl.step_eval_seconds;
    eval_count += tl.eval_count;
    const SamplerTimes& st = run.sampler->times();
    sampler.decide_s += st.decide_s;
    sampler.decide_calls += st.decide_calls;
    sampler.observe_s += st.observe_s;
    sampler.observe_calls += st.observe_calls;
    sampler.refresh_s += st.refresh_s;
    sampler.refresh_calls += st.refresh_calls;
    section_wall_s += tl.section_wall_s;
    section_busy_s += tl.section_busy_s;
    serial_train_s += tl.serial_train_s;
    checkpoint_ms.insert(checkpoint_ms.end(), tl.checkpoint_ms.begin(),
                         tl.checkpoint_ms.end());
    up_bytes += tl.ledger.device_upload.bytes;
    down_bytes += tl.ledger.device_download.bytes;
    dropped += tl.dropped;
    straggler_timeouts += tl.straggler_timeouts;
    retries += tl.retries;
  }

  double steps_per_s() const { return ratio(static_cast<double>(steps), step_seconds); }
};

void add_end_to_end(Values& values, const RunTotals& totals, double setup_s,
                    double rss_mb) {
  values["setup_s"] = setup_s;
  values["steps_per_s"] = totals.steps_per_s();
  values["device_updates_per_s"] =
      ratio(static_cast<double>(totals.device_updates), totals.step_seconds);
  values["edge_step_p50_ms"] = median(totals.edge_ms);
  values["cloud_step_p50_ms"] = median(totals.cloud_ms);
  values["peak_rss_mb"] = rss_mb;
}

/// Device-link byte-ledger checks of one HFL run.
std::vector<Check> ledger_checks(const std::string& label, const HflRun& run,
                                 const mhfl::ExperimentConfig& config) {
  const std::size_t params = run.final_global.size();
  const StepTimeline& tl = *run.timeline;
  const auto up = mach::comm::make_codec(config.hfl.comm.device_up);
  const auto down = mach::comm::make_codec(config.hfl.comm.device_down);
  return {
      check_byte_ledger(label + ":device_upload", tl.ledger.device_upload.messages,
                        tl.ledger.device_upload.bytes, tl.expected_uploads,
                        up->encoded_bytes(params)),
      check_byte_ledger(label + ":device_download",
                        tl.ledger.device_download.messages,
                        tl.ledger.device_download.bytes, tl.sampled,
                        down->encoded_bytes(params)),
  };
}

double final_accuracy(const HflRun& run) {
  return run.metrics.points().empty() ? 0.0 : run.metrics.points().back().test_accuracy;
}

// ---------------------------------------------------------------------------
// Kernel and codec microbenchmarks (traced runs)
// ---------------------------------------------------------------------------

std::vector<float> filled(std::size_t n, std::uint64_t seed) {
  mach::common::Rng rng(seed);
  std::vector<float> values(n);
  for (float& v : values) v = static_cast<float>(rng.uniform() - 0.5);
  return values;
}

/// Seconds per call of `fn`, repeated for at least `budget_s`.
double time_per_call(double budget_s, const std::function<void()>& fn) {
  fn();  // warm caches and buffers
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = seconds_between(start, Clock::now());
  } while (elapsed < budget_s || calls < 3);
  return elapsed / static_cast<double>(calls);
}

struct ConvDims {
  std::size_t batch, channels, height, width, out, kernel, pad, oh, ow, patch;
};

ConvDims conv_dims(const LayerShape& s) {
  ConvDims d{s.input[0], s.input[1], s.input[2], s.input[3], s.out, s.kernel, s.pad,
             0, 0, 0};
  d.oh = d.height + 2 * d.pad - d.kernel + 1;
  d.ow = d.width + 2 * d.pad - d.kernel + 1;
  d.patch = d.channels * d.kernel * d.kernel;
  return d;
}

/// GEMM flops of one training forward + backward at a recorded shape: the
/// forward product and the two backward products (weight and input grads).
double gemm_flops(const LayerShape& s) {
  if (s.kind == LayerKind::Conv2d) {
    const ConvDims d = conv_dims(s);
    return 3.0 * 2.0 * static_cast<double>(d.batch * d.out * d.patch * d.oh * d.ow);
  }
  return 3.0 * 2.0 * static_cast<double>(s.input[0] * s.input[1] * s.out);
}

struct KernelFigures {
  double flops = 0.0;  // total GEMM flops of all recorded calls
  double gflops = 0.0;
  double im2col_gbps = 0.0;
};

KernelFigures time_kernels(const std::vector<LayerProbeData>& probes) {
  namespace k = mach::tensor::kernels;
  // Merge identical shapes across probe instances (model replicas).
  std::vector<LayerShape> shapes;
  for (const auto& probe : probes) {
    for (const auto& s : probe.shapes) {
      auto it = std::find_if(shapes.begin(), shapes.end(), [&](const LayerShape& o) {
        return o.kind == s.kind && o.input == s.input && o.out == s.out &&
               o.kernel == s.kernel && o.pad == s.pad;
      });
      if (it == shapes.end()) {
        shapes.push_back(s);
      } else {
        it->calls += s.calls;
      }
    }
  }
  KernelFigures figures;
  double gemm_seconds = 0.0;
  double im2col_bytes = 0.0;
  double im2col_seconds = 0.0;
  constexpr double kBudget = 0.03;
  for (const LayerShape& s : shapes) {
    const auto calls = static_cast<double>(s.calls);
    figures.flops += calls * gemm_flops(s);
    if (s.kind == LayerKind::Conv2d) {
      const ConvDims d = conv_dims(s);
      const auto image = filled(d.channels * d.height * d.width, 1);
      const auto weight = filled(d.out * d.patch, 2);
      const auto grad_out = filled(d.out * d.oh * d.ow, 3);
      std::vector<float> cols(d.patch * d.oh * d.ow), out(d.out * d.oh * d.ow),
          grad_w(d.out * d.patch), grad_cols(d.patch * d.oh * d.ow);
      const std::size_t hw = d.oh * d.ow;
      const double im2col_s = time_per_call(kBudget, [&] {
        k::im2col(image.data(), d.channels, d.height, d.width, d.kernel, d.pad, 1,
                  cols.data());
      });
      const double gemm_s = time_per_call(kBudget, [&] {
        k::gemm_nn({weight.data(), d.out, d.patch}, {cols.data(), d.patch, hw},
                   {out.data(), d.out, hw});
        k::gemm_nt({grad_out.data(), d.out, hw}, {cols.data(), d.patch, hw},
                   {grad_w.data(), d.out, d.patch});
        k::gemm_tn({weight.data(), d.out, d.patch}, {grad_out.data(), d.out, hw},
                   {grad_cols.data(), d.patch, hw});
      });
      // Per call: one image's products and unfold, times the batch.
      gemm_seconds += calls * static_cast<double>(d.batch) * gemm_s;
      im2col_seconds += calls * static_cast<double>(d.batch) * im2col_s;
      im2col_bytes += calls * static_cast<double>(d.batch) * 4.0 *
                      static_cast<double>(d.channels * d.height * d.width +
                                          d.patch * hw);
    } else {
      const std::size_t b = s.input[0], in = s.input[1], out_f = s.out;
      const auto x = filled(b * in, 4);
      const auto w = filled(in * out_f, 5);
      const auto dy = filled(b * out_f, 6);
      std::vector<float> y(b * out_f), dw(in * out_f), dx(b * in);
      const double gemm_s = time_per_call(kBudget, [&] {
        k::gemm_nn({x.data(), b, in}, {w.data(), in, out_f}, {y.data(), b, out_f});
        k::gemm_tn({x.data(), b, in}, {dy.data(), b, out_f}, {dw.data(), in, out_f});
        k::gemm_nt({dy.data(), b, out_f}, {w.data(), in, out_f}, {dx.data(), b, in});
      });
      gemm_seconds += calls * gemm_s;
    }
  }
  figures.gflops = ratio(figures.flops, gemm_seconds) * 1e-9;
  figures.im2col_gbps = ratio(im2col_bytes, im2col_seconds) * 1e-9;
  return figures;
}

/// Mean encode and decode microseconds per message over the lossy links a
/// run transcodes, weighted by how many messages each link transcoded.
std::pair<double, double> time_codecs(const mhfl::ExperimentConfig& config,
                                      const std::vector<float>& params,
                                      std::uint64_t uploads, std::uint64_t downloads) {
  double encode_us = 0.0, decode_us = 0.0, messages = 0.0;
  const auto time_link = [&](const mach::comm::CodecSpec& spec, std::uint64_t count) {
    const auto codec = mach::comm::make_codec(spec);
    if (codec->lossless() || count == 0) return;
    mach::comm::Encoded wire;
    std::vector<float> decoded;
    const double enc = time_per_call(0.02, [&] { codec->encode(params, {}, {}, wire); });
    const double dec = time_per_call(
        0.02, [&] { codec->decode(wire, params.size(), {}, decoded); });
    const auto n = static_cast<double>(count);
    encode_us += n * enc * 1e6;
    decode_us += n * dec * 1e6;
    messages += n;
  };
  time_link(config.hfl.comm.device_up, uploads);
  time_link(config.hfl.comm.device_down, downloads);
  return {ratio(encode_us, messages), ratio(decode_us, messages)};
}

// ---------------------------------------------------------------------------
// Per-layer metrics of HFL workloads
// ---------------------------------------------------------------------------

void add_hfl_layers(Values& values, const RunTotals& traced, const RunTotals& untraced,
                    const std::vector<LayerProbeData>& probes, std::size_t workers,
                    const SetupStats& setup) {
  const auto updates =
      static_cast<double>(std::max<std::uint64_t>(traced.device_updates, 1));
  std::array<double, kLayerKinds> forward{}, backward{};
  double layer_seconds = 0.0;
  for (const auto& probe : probes) {
    forward[static_cast<std::size_t>(probe.kind)] += probe.train_forward_s;
    backward[static_cast<std::size_t>(probe.kind)] += probe.train_backward_s;
    layer_seconds += probe.train_forward_s + probe.train_backward_s;
  }
  double forward_total = 0.0, backward_total = 0.0;
  for (std::size_t i = 0; i < kLayerKinds; ++i) {
    forward_total += forward[i];
    backward_total += backward[i];
    const auto kind = static_cast<LayerKind>(i);
    if (kind == LayerKind::Flatten) continue;  // a reshape; no metric of its own
    const std::string prefix = std::string("nn.") + layer_kind_name(kind);
    values[prefix + ".forward_ms_per_update"] = forward[i] * 1e3 / updates;
    values[prefix + ".backward_ms_per_update"] = backward[i] * 1e3 / updates;
  }
  values["nn.forward_ms_per_update"] = forward_total * 1e3 / updates;
  values["nn.backward_ms_per_update"] = backward_total * 1e3 / updates;
  values["nn.optimizer_ms_per_update"] =
      (traced.train_device_seconds - layer_seconds) * 1e3 / updates;

  const KernelFigures kernels = time_kernels(probes);
  values["tensor.gemm_flops_per_update"] = kernels.flops / updates;
  values["tensor.gemm_gflops"] = kernels.gflops;
  values["tensor.im2col_gbps"] = kernels.im2col_gbps;

  if (traced.section_wall_s > 0.0) {
    const double capacity = static_cast<double>(workers) * traced.section_wall_s;
    values["runtime.worker_busy_share"] = traced.section_busy_s / capacity;
    values["runtime.barrier_wait_ms_per_step"] =
        (capacity - traced.section_busy_s) * 1e3 /
        static_cast<double>(std::max<std::uint64_t>(traced.steps, 1));
  }

  double checkpoint_s = 0.0;
  for (const double ms : traced.checkpoint_ms) checkpoint_s += ms * 1e-3;
  const double self_s = traced.step_seconds - traced.sampler.total_s() -
                        traced.section_wall_s - traced.serial_train_s -
                        traced.step_eval_seconds - checkpoint_s;
  const auto steps = static_cast<double>(std::max<std::uint64_t>(traced.steps, 1));
  const auto runs = static_cast<double>(std::max<std::size_t>(traced.runs, 1));
  values["hfl.construct_s"] = setup.parts.construct_s;
  values["hfl.self_ms_per_step"] = self_s * 1e3 / steps;
  values["hfl.eval_ms_per_eval"] =
      ratio(traced.eval_seconds * 1e3, static_cast<double>(traced.eval_count));
  values["hfl.device_updates"] = static_cast<double>(traced.device_updates) / runs;
  values["sampling.decide_us_per_edge"] =
      ratio(traced.sampler.decide_s * 1e6,
            static_cast<double>(traced.sampler.decide_calls));
  values["sampling.observe_us_per_update"] =
      ratio(traced.sampler.observe_s * 1e6,
            static_cast<double>(traced.sampler.observe_calls));
  values["sampling.refresh_us_per_cloud_round"] =
      ratio(traced.sampler.refresh_s * 1e6,
            static_cast<double>(traced.sampler.refresh_calls));
  values["data.generate_s"] = setup.parts.generate_s;
  values["data.partition_s"] = setup.parts.partition_s;
  values["mobility.schedule_s"] = setup.parts.schedule_s;
  values["comm.upload_bytes_per_update"] = static_cast<double>(traced.up_bytes) / updates;
  values["comm.download_bytes_per_update"] =
      static_cast<double>(traced.down_bytes) / updates;
  values["fault.dropped"] = static_cast<double>(traced.dropped) / runs;
  values["fault.straggler_timeouts"] =
      static_cast<double>(traced.straggler_timeouts) / runs;
  values["fault.retries"] = static_cast<double>(traced.retries) / runs;
  values["ckpt.save_ms"] = median(traced.checkpoint_ms);
  values["obs.bench_trace_overhead_pct"] =
      (ratio(untraced.steps_per_s(), traced.steps_per_s()) - 1.0) * 100.0;
  if (untraced.edge_ms.size() >= kTailSamples) {
    values["step.edge_p95_ms"] = percentile(untraced.edge_ms, 0.95);
  }
}

/// What a traced HFL measurement shares across its runs: the span recorder,
/// the layer probes' accumulators and the handle run_hfl takes.
struct TracedHfl {
  SpanRecorder spans;
  LayerCollector layers;
  Tracing tracing;

  explicit TracedHfl(std::size_t workers) : spans(workers), layers(&spans) {
    tracing.spans = &spans;
    tracing.layers = &layers;
  }
};

void write_spans(Report& report, SpanRecorder& spans, const Options& options) {
  const std::string path =
      (fs::path(options.out_dir) /
       (options.workload + "-seed" + std::to_string(options.seed) + "-trace.json"))
          .string();
  report.notes.push_back(spans.write(path) ? "spans: " + path
                                           : "spans: could not write " + path);
}

/// First evaluation step reaching the task target, or `steps` if none did.
double quality_steps(const HflRun& run, const mhfl::ExperimentConfig& config,
                     std::size_t steps) {
  return static_cast<double>(
      run.metrics.time_to_accuracy(config.target_accuracy).value_or(steps));
}

// ---------------------------------------------------------------------------
// paper_cnn: the paper configuration at a fixed worker count.
// ---------------------------------------------------------------------------

std::size_t paper_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(kPaperWorkers, hw == 0 ? 1 : hw);
}

void paper_cnn(const Options& options, Report& report, Values& values) {
  auto config = mhfl::ExperimentConfig::full(mach::data::TaskKind::MnistLike);
  config = config.with_seed(split_seed(options.seed, 1));
  config.hfl.parallel.threads = paper_workers();
  const std::size_t workers = workers_of(config);
  const std::string sampler = "mach";
  const auto setup_pass = [&](SetupParts* parts) {
    return setup_once(config, sampler, parts);
  };

  // The first run captures w^t when the thread-invariance prefix ends.
  std::vector<float> prefix_params;
  const Prepare capture = [&prefix_params](mhfl::HflSimulator& sim,
                                           StepTimeline& timeline) {
    timeline.at_step_begin = [&sim, &prefix_params](std::size_t t) {
      if (t == kPaperPrefixSteps) prefix_params = sim.global_parameters();
    };
  };
  SetupStats setup;
  if (!options.trace) setup = measure_setup(kPaperSetupPasses, false, setup_pass);
  RunTotals untraced;
  std::vector<HflRun> runs;
  run_units(options.seconds, [&](std::size_t unit) {
    runs.push_back(run_hfl(config, sampler, kPaperSteps, nullptr,
                           unit == 0 ? capture : Prepare{}));
    untraced.add(runs.back());
  });
  const double rss = peak_rss_mb();
  report.attempted += untraced.steps;

  const HflRun& first = runs.front();
  report.checks.push_back(check_budget("paper_cnn", first.sampler->budget()));
  report.checks.push_back(check_participation("paper_cnn", first.sampler->budget(),
                                              first.timeline->sampled));
  for (Check& check : ledger_checks("paper_cnn", first, config)) {
    report.checks.push_back(std::move(check));
  }
  // No accuracy floor here: under literal Eq. 5 a single paper-CNN run's
  // final accuracy falls below twice chance on some run seeds (README), so
  // the floor would fail by seed, not by program change.
  auto serial = config;
  serial.hfl.parallel.threads = 1;
  const HflRun prefix = run_hfl(serial, sampler, kPaperPrefixSteps, nullptr);
  report.checks.push_back(check_bitwise_equal(
      "thread_invariance:1_vs_" + std::to_string(workers) + "_workers",
      prefix.final_global, prefix_params));
  std::vector<Check> repeats;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    repeats.push_back(check_bitwise_equal("run " + std::to_string(i),
                                          first.final_global, runs[i].final_global));
  }
  if (!repeats.empty()) report.checks.push_back(fold_checks("repeat_identity", repeats));

  if (!options.trace) {
    add_end_to_end(values, untraced, setup.seconds, rss);
    return;
  }
  TracedHfl traced(workers);
  setup = measure_setup(kPaperSetupPasses, true, setup_pass);
  report.checks.push_back(check_world_replica(config));
  report.checks.push_back(check_probe_layout(config));
  RunTotals totals;
  std::vector<std::vector<float>> traced_params;
  run_units(options.seconds, [&](std::size_t) {
    const HflRun run = run_hfl(config, sampler, kPaperSteps, &traced.tracing);
    totals.add(run);
    traced_params.push_back(run.final_global);
  });
  report.attempted += totals.steps;
  report.checks.push_back(check_bitwise_equal("probes_passive", first.final_global,
                                              traced_params.front()));
  add_hfl_layers(values, totals, untraced, traced.layers.snapshot(), workers, setup);
  values["quality.final_accuracy"] = final_accuracy(first);
  values["quality.steps_to_target"] = quality_steps(first, config, kPaperSteps);
  write_spans(report, traced.spans, options);
}

// ---------------------------------------------------------------------------
// fig3_smoke: 3 tasks x the paper's 5 samplers x kGridSeeds run seeds.
// ---------------------------------------------------------------------------

struct GridPass {
  RunTotals totals;
  std::vector<HflRun> runs;  // grid order: task, sampler, seed
};

void fig3_smoke(const Options& options, Report& report, Values& values) {
  const std::vector<mach::data::TaskKind> tasks = {
      mach::data::TaskKind::MnistLike, mach::data::TaskKind::FmnistLike,
      mach::data::TaskKind::CifarLike};
  const auto& samplers = mach::core::paper_algorithms();
  std::vector<mhfl::ExperimentConfig> configs;
  for (const auto task : tasks) {
    auto config = mhfl::ExperimentConfig::smoke(task);
      config.hfl.parallel.threads = 1;
    configs.push_back(config);
  }
  std::vector<std::uint64_t> seeds;
  for (std::size_t s = 0; s < kGridSeeds; ++s) {
    seeds.push_back(split_seed(options.seed, 1 + s));
  }

  const auto setup_pass = [&](SetupParts* parts) {
    double total = 0.0;
    for (const auto& config : configs) {
      for (const auto& sampler : samplers) {
        for (const auto seed : seeds) {
          total += setup_once(config.with_seed(seed), sampler, parts);
        }
      }
    }
    return total;
  };
  const auto run_pass = [&](Tracing* tracing) {
    GridPass pass;
    for (const auto& config : configs) {
      for (const auto& sampler : samplers) {
        for (const auto seed : seeds) {
          pass.runs.push_back(
              run_hfl(config.with_seed(seed), sampler, config.horizon, tracing));
          pass.totals.add(pass.runs.back());
        }
      }
    }
    return pass;
  };

  SetupStats setup;
  if (!options.trace) setup = measure_setup(kGridSetupPasses, false, setup_pass);
  std::vector<GridPass> passes;
  run_units(options.seconds, [&](std::size_t) { passes.push_back(run_pass(nullptr)); });
  const double rss = peak_rss_mb();
  for (const auto& pass : passes) report.attempted += pass.totals.steps;

  // Checks on the first pass; later passes must repeat it bit for bit.
  const GridPass& first = passes.front();
  std::vector<Check> ledgers, targets;
  double steps_to_target = 0.0;
  double accuracy_sum = 0.0;
  std::size_t index = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto& config = configs[c];
    const std::string task = mach::data::task_name(config.task);
    double task_accuracy = 0.0;
    for (const auto& sampler : samplers) {
      std::vector<mhfl::MetricsRecorder> recorders;
      std::vector<std::vector<EvalSample>> observed;
      BudgetLedger budget;
      std::uint64_t realised = 0;
      for (std::size_t s = 0; s < seeds.size(); ++s, ++index) {
        const HflRun& run = first.runs[index];
        const std::string label = task + ":" + sampler + ":s" + std::to_string(s);
        const auto checks = ledger_checks(label, run, config);
        ledgers.insert(ledgers.end(), checks.begin(), checks.end());
        if (s == 0) budget.edge_budgeted = run.sampler->budget().edge_budgeted;
        budget.absorb(run.sampler->budget());
        realised += run.timeline->sampled;
        recorders.push_back(run.metrics);
        observed.push_back(run.timeline->evals);
        task_accuracy += final_accuracy(run);
      }
      const std::string label = task + ":" + sampler;
      report.checks.push_back(check_budget(label, budget));
      report.checks.push_back(check_participation(label, budget, realised));
      const auto program = mhfl::curve_time_to_target(mhfl::average_curves(recorders),
                                                      config.target_accuracy);
      targets.push_back(check_steps_equal(
          label, program, recompute_steps_to_target(observed, config.target_accuracy)));
      steps_to_target += static_cast<double>(program.value_or(config.horizon));
    }
    task_accuracy /= static_cast<double>(samplers.size() * seeds.size());
    accuracy_sum += task_accuracy;
    report.checks.push_back(
        check_accuracy_floor(task, task_accuracy, config.data_spec.classes));
  }
  report.checks.push_back(fold_checks("byte_ledger:grid", ledgers));
  report.checks.push_back(fold_checks("steps_to_target:grid", targets));
  std::vector<Check> repeats;
  for (std::size_t p = 1; p < passes.size(); ++p) {
    for (std::size_t r = 0; r < first.runs.size(); ++r) {
      repeats.push_back(check_bitwise_equal("pass " + std::to_string(p) + " run " +
                                                std::to_string(r),
                                            first.runs[r].final_global,
                                            passes[p].runs[r].final_global));
    }
  }
  if (!repeats.empty()) report.checks.push_back(fold_checks("repeat_identity", repeats));

  if (!options.trace) {
    RunTotals all;
    for (const auto& pass : passes) {
      for (const auto& run : pass.runs) all.add(run);
    }
    add_end_to_end(values, all, setup.seconds, rss);
    return;
  }
  TracedHfl traced(1);
  setup = measure_setup(kGridSetupPasses, true, setup_pass);
  report.checks.push_back(check_world_replica(configs.back()));
  std::vector<Check> layouts;
  for (const auto& config : configs) layouts.push_back(check_probe_layout(config));
  report.checks.push_back(fold_checks("probe_layout", layouts));
  RunTotals totals;
  std::vector<Check> passive;
  run_units(options.seconds, [&](std::size_t unit) {
    const GridPass pass = run_pass(&traced.tracing);
    for (const auto& run : pass.runs) totals.add(run);
    if (unit > 0) return;
    for (std::size_t r = 0; r < pass.runs.size(); ++r) {
      passive.push_back(check_bitwise_equal("run " + std::to_string(r),
                                            first.runs[r].final_global,
                                            pass.runs[r].final_global));
    }
  });
  report.attempted += totals.steps;
  report.checks.push_back(fold_checks("probes_passive", passive));
  RunTotals untraced;
  for (const auto& pass : passes) {
    for (const auto& run : pass.runs) untraced.add(run);
  }
  add_hfl_layers(values, totals, untraced, traced.layers.snapshot(), 1, setup);
  values["quality.steps_to_target"] = steps_to_target;
  values["quality.final_accuracy"] = accuracy_sum / static_cast<double>(configs.size());
  write_spans(report, traced.spans, options);
}

// ---------------------------------------------------------------------------
// scale_1m: core::ScaleSimulator at 1M devices x 1k edges.
// ---------------------------------------------------------------------------

struct ScaleTotals {
  std::uint64_t rounds = 0;
  double seconds = 0.0;
  std::vector<double> edge_ms;
  std::vector<double> cloud_ms;
  std::uint64_t participants = 0;
  std::uint64_t movers = 0;
  std::uint64_t rebuilds = 0;
  ScaleLedger ledger;

  double rounds_per_s() const { return ratio(static_cast<double>(rounds), seconds); }
};

ScaleTotals measure_scale(mach::core::ScaleSimulator& sim,
                          const mach::core::ScaleConfig& config, double seconds,
                          SpanRecorder* spans) {
  ScaleTotals totals;
  std::vector<std::size_t> sizes(config.num_edges);
  if (spans != nullptr) spans->start();
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    const std::size_t t = sim.t();
    if (spans != nullptr && spans->recording() && t >= kSpanSteps) spans->stop();
    const Clock::time_point round_start = Clock::now();
    mach::core::ScaleRoundStats stats;
    {
      const mach::obs::SpanGuard span("scale.round", static_cast<std::int64_t>(t));
      stats = sim.step();
    }
    const double seconds_taken = seconds_between(round_start, Clock::now());
    // ScaleSimulator refreshes UCB state when (t + 1) % cloud_every == 0.
    const bool cloud = (t + 1) % config.cloud_every == 0;
    (cloud ? totals.cloud_ms : totals.edge_ms).push_back(seconds_taken * 1e3);
    totals.seconds += seconds_taken;
    ++totals.rounds;
    totals.participants += stats.participants;
    totals.movers += stats.movers;
    totals.rebuilds += stats.weight_rebuilds;
    for (std::size_t n = 0; n < config.num_edges; ++n) {
      sizes[n] = sim.edge_members(n).size();
    }
    totals.ledger.record(t, sizes, config.num_devices, config.participation,
                         stats.participants);
  }
  if (spans != nullptr && spans->recording()) spans->stop();
  return totals;
}

void scale_1m(const Options& options, Report& report, Values& values) {
  mach::core::ScaleConfig config;
  config.num_devices = kScaleDevices;
  config.num_edges = kScaleEdges;
  config.seed = options.seed;
  double state_mb = 0.0;
  const SetupStats setup = measure_setup(kScaleSetupPasses, false, [&](SetupParts*) {
    const Clock::time_point start = Clock::now();
    const mach::core::ScaleSimulator sim(config);
    const double seconds = seconds_between(start, Clock::now());
    state_mb = static_cast<double>(sim.memory_bytes()) / (1024.0 * 1024.0);
    return seconds;
  });

  mach::core::ScaleSimulator sim(config);
  const ScaleTotals untraced = measure_scale(sim, config, options.seconds, nullptr);
  const double rss = peak_rss_mb();
  report.attempted += untraced.rounds;
  report.checks.push_back(check_scale_ledger("scale_1m", untraced.ledger));

  // Save mid-run, then replay the following rounds from a restored engine.
  mach::ckpt::ByteWriter snapshot;
  sim.save_state(snapshot);
  std::vector<std::uint64_t> expected, replayed;
  for (std::size_t i = 0; i < kScaleReplayRounds; ++i) {
    expected.push_back(sim.step().sample_digest);
  }
  {
    mach::core::ScaleSimulator restored(config);
    mach::ckpt::ByteReader reader(snapshot.data());
    restored.load_state(reader);
    for (std::size_t i = 0; i < kScaleReplayRounds; ++i) {
      replayed.push_back(restored.step().sample_digest);
    }
  }
  report.checks.push_back(check_digests_equal("scale_save_load", expected, replayed));

  if (!options.trace) {
    values["setup_s"] = setup.seconds;
    values["steps_per_s"] = untraced.rounds_per_s();
    values["device_updates_per_s"] =
        ratio(static_cast<double>(untraced.participants), untraced.seconds);
    values["edge_step_p50_ms"] = median(untraced.edge_ms);
    values["cloud_step_p50_ms"] = median(untraced.cloud_ms);
    values["peak_rss_mb"] = rss;
    return;
  }
  SpanRecorder spans(1);
  ScaleTotals traced;
  {
    mach::core::ScaleSimulator traced_sim(config);
    traced = measure_scale(traced_sim, config, options.seconds, &spans);
  }
  report.attempted += traced.rounds;
  const auto rounds = static_cast<double>(std::max<std::uint64_t>(traced.rounds, 1));
  values["core.construct_s"] = setup.seconds;
  values["core.movers_per_round"] = static_cast<double>(traced.movers) / rounds;
  values["core.weight_rebuilds_per_round"] = static_cast<double>(traced.rebuilds) / rounds;
  values["core.participants_per_round"] = static_cast<double>(traced.participants) / rounds;
  values["core.state_mb"] = state_mb;
  values["obs.bench_trace_overhead_pct"] =
      (ratio(untraced.rounds_per_s(), traced.rounds_per_s()) - 1.0) * 100.0;
  if (untraced.edge_ms.size() >= kTailSamples) {
    values["step.edge_p95_ms"] = percentile(untraced.edge_ms, 0.95);
  }

  // Standalone layers at the workload's sizes: the mobility stream the
  // engine advances (same configuration) and one edge's weighted draw.
  {
    mach::mobility::GridMobilityStream stream(
        {.num_devices = config.num_devices,
         .num_stations = config.num_edges,
         .seed = split_seed(config.seed, 0x6e0bULL),
         .min_dwell = config.min_dwell,
         .max_dwell = config.max_dwell});
    std::vector<std::uint32_t> moved;
    const double advance_s = time_per_call(0.5, [&] {
      const mach::obs::SpanGuard span("mobility.advance");
      stream.advance(moved);
    });
    values["mobility.advance_ms_per_round"] = advance_s * 1e3;
  }
  {
    const std::size_t members = config.num_devices / config.num_edges;
    mach::common::Rng rng(split_seed(config.seed, 0xd4a3ULL));
    std::vector<double> weights(members);
    for (double& w : weights) w = 1.0 + 0.5 * rng.uniform();
    mach::sampling::FenwickTree tree(weights);
    const auto draws = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(config.participation * static_cast<double>(members))));
    std::vector<std::uint32_t> out;
    const double draw_s = time_per_call(0.2, [&] {
      out.clear();
      tree.sample_without_replacement(draws, rng, out);
    });
    values["sampling.draw_us_per_edge"] = draw_s * 1e6;
  }
  write_spans(report, spans, options);
}

// ---------------------------------------------------------------------------
// resilient_cifar: faults, lossy codecs and a snapshot every T_g steps.
// ---------------------------------------------------------------------------

void resilient_cifar(const Options& options, Report& report, Values& values) {
  auto config = mhfl::ExperimentConfig::smoke(mach::data::TaskKind::CifarLike);
  config = config.with_seed(split_seed(options.seed, 1));
  config.hfl.parallel.threads = 1;
  config.hfl.faults = mach::fault::FaultSchedule::parse(kResilientFaults);
  config.hfl.comm = mach::comm::CommConfig::parse(kResilientCodecs);
  const fs::path snaps = fs::path(options.out_dir) / "snaps";
  const fs::path resume_snaps = fs::path(options.out_dir) / "snaps_resume";
  config.hfl.checkpoint.every = config.hfl.cloud_interval;
  config.hfl.checkpoint.dir = snaps.string();
  config.hfl.checkpoint.keep = config.horizon / config.hfl.checkpoint.every + 1;
  const std::string sampler = "mach";
  const auto setup_pass = [&](SetupParts* parts) {
    return setup_once(config, sampler, parts);
  };

  SetupStats setup;
  if (!options.trace) setup = measure_setup(kResilientSetupPasses, false, setup_pass);
  RunTotals untraced;
  std::vector<HflRun> runs;
  run_units(options.seconds, [&](std::size_t) {
    fs::remove_all(snaps);
    runs.push_back(run_hfl(config, sampler, config.horizon, nullptr));
    untraced.add(runs.back());
  });
  const double rss = peak_rss_mb();
  report.attempted += untraced.steps;

  const HflRun& first = runs.front();
  report.checks.push_back(check_budget("resilient_cifar", first.sampler->budget()));
  report.checks.push_back(check_participation(
      "resilient_cifar", first.sampler->budget(), first.timeline->sampled));
  for (Check& check : ledger_checks("resilient_cifar", first, config)) {
    report.checks.push_back(std::move(check));
  }
  const StepTimeline& tl = *first.timeline;
  const auto& faults = config.hfl.faults;
  report.checks.push_back(check_binomial_rate("dropout", tl.dropped, tl.sampled,
                                              faults.dropout.probability));
  report.checks.push_back(check_binomial_rate(
      "straggler", tl.straggler_arrivals + tl.straggler_timeouts,
      tl.sampled - tl.dropped, faults.straggler.probability));
  report.checks.push_back(check_binomial_rate("cloud_loss", tl.cloud_edges_lost,
                                              tl.cloud_edge_trials,
                                              faults.cloud_loss.probability));
  report.checks.push_back(check_accuracy_floor("resilient_cifar", final_accuracy(first),
                                               config.data_spec.classes));
  std::vector<Check> repeats;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    repeats.push_back(check_bitwise_equal("run " + std::to_string(i),
                                          first.final_global, runs[i].final_global));
  }
  if (!repeats.empty()) report.checks.push_back(fold_checks("repeat_identity", repeats));

  // Resume from the middle snapshot of the last run.
  const mach::ckpt::CheckpointManager manager(snaps.string(), config.hfl.checkpoint.keep);
  const auto listed = manager.list();
  double snapshot_bytes = 0.0;
  double resume_ms = 0.0;
  if (listed.empty()) {
    report.checks.push_back(Check{"resume_identity", false, "no snapshot written"});
  } else {
    snapshot_bytes = static_cast<double>(fs::file_size(listed.back()));
    fs::remove_all(resume_snaps);
    auto resumed_config = config;
    resumed_config.hfl.checkpoint.dir = resume_snaps.string();
    Clock::time_point restore_start;
    const std::string middle = listed[listed.size() / 2];
    const Prepare resume = [&](mhfl::HflSimulator& sim, StepTimeline&) {
      restore_start = Clock::now();
      std::string error;
      auto blob = mach::ckpt::read_checkpoint_file(middle, &error);
      if (!blob) throw std::runtime_error("resume: " + middle + ": " + error);
      sim.set_resume_payload(std::move(blob->payload));
    };
    const HflRun resumed =
        run_hfl(resumed_config, sampler, config.horizon, nullptr, resume);
    resume_ms = seconds_between(restore_start, resumed.timeline->first_step_time()) * 1e3;
    Check check = check_bitwise_equal("resume_identity", first.final_global,
                                      resumed.final_global);
    check.detail += " (resumed from " + fs::path(middle).filename().string() + ")";
    report.checks.push_back(std::move(check));
  }

  if (!options.trace) {
    add_end_to_end(values, untraced, setup.seconds, rss);
  } else {
    TracedHfl traced(1);
    setup = measure_setup(kResilientSetupPasses, true, setup_pass);
    report.checks.push_back(check_world_replica(config));
    report.checks.push_back(check_probe_layout(config));
    RunTotals totals;
    std::vector<std::vector<float>> traced_params;
    run_units(options.seconds, [&](std::size_t) {
      fs::remove_all(snaps);
      const HflRun run = run_hfl(config, sampler, config.horizon, &traced.tracing);
      totals.add(run);
      traced_params.push_back(run.final_global);
    });
    report.attempted += totals.steps;
    report.checks.push_back(check_bitwise_equal("probes_passive", first.final_global,
                                                traced_params.front()));
    add_hfl_layers(values, totals, untraced, traced.layers.snapshot(), 1, setup);
    const auto [encode_us, decode_us] =
        time_codecs(config, first.final_global,
                    totals.device_updates / totals.runs,
                    totals.downlink_rounds / totals.runs);
    values["comm.encode_us_per_msg"] = encode_us;
    values["comm.decode_us_per_msg"] = decode_us;
    values["ckpt.snapshot_bytes"] = snapshot_bytes;
    values["ckpt.resume_ms"] = resume_ms;
    values["quality.final_accuracy"] = final_accuracy(first);
    values["quality.steps_to_target"] = quality_steps(first, config, config.horizon);
    write_spans(report, traced.spans, options);
  }
  fs::remove_all(snaps);
  fs::remove_all(resume_snaps);
}

using WorkloadFn = void (*)(const Options&, Report&, Values&);

const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> table = {
      {"paper_cnn", &paper_cnn},
      {"fig3_smoke", &fig3_smoke},
      {"scale_1m", &scale_1m},
      {"resilient_cifar", &resilient_cifar},
  };
  return table;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& [name, fn] : workloads()) out.push_back(name);
    return out;
  }();
  return names;
}

Report run_workload(const Options& options) {
  WorkloadFn fn = nullptr;
  for (const auto& [name, candidate] : workloads()) {
    if (name == options.workload) fn = candidate;
  }
  if (fn == nullptr) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  fs::create_directories(options.out_dir);
  Report report;
  Values values;
  const HostNoise before = host_noise_now();
  fn(options, report, values);
  const HostNoise after = host_noise_now();
  const std::uint64_t steal = after.steal_ticks - before.steal_ticks;
  const long switches = after.involuntary_switches - before.involuntary_switches;
  report.notes.push_back("host: steal_ticks=" + std::to_string(steal) +
                         " involuntary_ctx_switches=" + std::to_string(switches) +
                         " hardware_threads=" +
                         std::to_string(std::thread::hardware_concurrency()));
  if (options.trace) {
    values["host.steal_ticks"] = static_cast<double>(steal);
    values["host.involuntary_ctx_switches"] = static_cast<double>(switches);
  }
  for (const Check& check : report.checks) {
    ++report.attempted;
    if (!check.ok) ++report.failed;
  }
  for (const MetricSpec& spec : options.trace ? kPerLayer : kEndToEnd) {
    const auto it = values.find(spec.name);
    report.metrics.push_back(
        Metric{spec.name, spec.unit, it == values.end() ? 0.0 : it->second});
  }
  return report;
}

}  // namespace perfbench
