// The runtime subsystem's core promise: a run is bitwise identical at any
// thread count. Replays the fig3-style 2-edge/8-device scenario serially
// and with 2 and 4 workers and asserts equal global parameters, metrics
// CSVs, confusion matrices and JSONL trace event sequences (timing fields
// stripped — wall-clock is the only thing allowed to differ), and equal
// phase-timer scope counts (the phase breakdown times the same scopes at
// every thread count).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "hfl/experiment.h"
#include "hfl/trace_canon.h"
#include "obs/jsonl_writer.h"

namespace mach::hfl {
namespace {

ExperimentConfig parallel_scenario(std::uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 30;
  // > 256 test examples so the chunked evaluation paths actually shard
  // across workers (kEvalChunk = 256).
  config.test_examples = 300;
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 2;
  config.hfl.participation = 0.6;
  config.horizon = 8;
  config.num_stations = 6;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

// Canonicalisation (sorted keys, timing fields dropped) lives in
// tests/hfl/trace_canon.h, shared with the fault and golden-trace suites.
using mach::test::canonical_trace;
using mach::test::slurp;

struct RunArtifacts {
  std::vector<float> params;
  std::string csv;
  std::vector<std::string> trace;
  std::vector<std::size_t> confusion;
  std::vector<std::uint64_t> phase_counts;  // scopes per obs::Phase
};

RunArtifacts run_with_threads(const ExperimentArtifacts& artifacts,
                              const ExperimentConfig& config,
                              std::size_t threads) {
  HflOptions options = config.hfl;
  options.seed = config.seed;
  options.parallel.threads = threads;
  HflSimulator simulator(artifacts.train, artifacts.test, artifacts.partition,
                         artifacts.schedule, make_model_factory(config),
                         options);

  std::ostringstream trace_stream;
  obs::JsonlTraceOptions trace_options;
  trace_options.device_events = true;
  obs::JsonlTraceWriter trace(trace_stream, trace_options);
  simulator.set_observer(&trace);

  auto sampler = core::make_sampler("mach");
  const MetricsRecorder metrics = simulator.run(*sampler, config.horizon);

  RunArtifacts result;
  result.params = simulator.global_parameters();
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    result.phase_counts.push_back(
        simulator.phase_timers()[static_cast<obs::Phase>(p)].count);
  }

  // Unique per process: ctest runs these tests as concurrent processes, and
  // a shared scratch name races (write/read/remove on the same file).
  const std::string csv_path = ::testing::TempDir() + "parallel_determinism_" +
                               std::to_string(threads) + "_" +
                               std::to_string(::getpid()) + ".csv";
  EXPECT_TRUE(metrics.write_csv(csv_path));
  result.csv = slurp(csv_path);
  std::remove(csv_path.c_str());

  const ConfusionMatrix confusion = simulator.evaluate_confusion();
  for (std::size_t t = 0; t < confusion.num_classes(); ++t) {
    for (std::size_t p = 0; p < confusion.num_classes(); ++p) {
      result.confusion.push_back(confusion.count(t, p));
    }
  }

  simulator.set_observer(nullptr);  // flush order: trace dies before simulator
  result.trace = canonical_trace(trace_stream.str());
  return result;
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeTheRun) {
  const ExperimentConfig config = parallel_scenario(47);
  const ExperimentArtifacts artifacts = build_experiment(config);

  const RunArtifacts serial = run_with_threads(artifacts, config, 1);
  ASSERT_FALSE(serial.params.empty());
  ASSERT_FALSE(serial.csv.empty());
  ASSERT_GE(serial.trace.size(), 4u);  // run_begin, steps, ..., run_end
  // One device_training scope per train wave: MACH runs whole-step waves,
  // so at most one per step (none in a step where nobody was sampled).
  const std::uint64_t training_scopes =
      serial.phase_counts[static_cast<std::size_t>(obs::Phase::DeviceTraining)];
  EXPECT_GT(training_scopes, 0u);
  EXPECT_LE(training_scopes, config.horizon);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunArtifacts parallel = run_with_threads(artifacts, config, threads);
    // Bitwise: float vectors compared element-exact, no tolerance.
    EXPECT_EQ(parallel.params, serial.params);
    EXPECT_EQ(parallel.csv, serial.csv);
    EXPECT_EQ(parallel.confusion, serial.confusion);
    EXPECT_EQ(parallel.phase_counts, serial.phase_counts);
    ASSERT_EQ(parallel.trace.size(), serial.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(parallel.trace[i], serial.trace[i]) << "event " << i;
    }
  }
}

TEST(ParallelDeterminism, RunExperimentHonoursTheThreadKnob) {
  // The high-level driver path (used by benches and the CLI) must inherit
  // the same guarantee end to end.
  ExperimentConfig config = parallel_scenario(48);
  config.horizon = 5;

  auto run_with = [&](std::size_t threads) {
    ExperimentConfig c = config;
    c.hfl.parallel.threads = threads;
    auto sampler = core::make_sampler("uniform");
    return run_experiment(c, *sampler);
  };

  const RunResult serial = run_with(1);
  const RunResult threaded = run_with(3);
  ASSERT_EQ(serial.metrics.points().size(), threaded.metrics.points().size());
  for (std::size_t i = 0; i < serial.metrics.points().size(); ++i) {
    const EvalPoint& a = serial.metrics.points()[i];
    const EvalPoint& b = threaded.metrics.points()[i];
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);
    EXPECT_EQ(a.test_loss, b.test_loss);
    EXPECT_EQ(a.train_loss, b.train_loss);
    EXPECT_EQ(a.participants, b.participants);
  }
}

}  // namespace
}  // namespace mach::hfl
