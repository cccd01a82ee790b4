// Engine-level codec guarantees: the fp32 default takes the exact pre-codec
// path, lossy runs stay thread-count deterministic and checkpoint-resumable,
// and the byte ledger matches the message counters times the encoded payload
// size exactly — including straggler retransmissions under fault injection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/bytes.h"
#include "ckpt/manager.h"
#include "ckpt/run_state.h"
#include "comm/codec.h"
#include "comm/config.h"
#include "core/registry.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "hfl/trace_canon.h"
#include "obs/jsonl_writer.h"

namespace mach::hfl {
namespace {

namespace fs = std::filesystem;
using mach::test::canonical_trace;
using mach::test::slurp;

ExperimentConfig comm_scenario(std::uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 30;
  config.test_examples = 300;
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 2;
  config.hfl.participation = 0.6;
  config.horizon = 8;
  config.num_stations = 6;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

struct RunArtifacts {
  std::vector<float> params;
  std::string csv;
  std::vector<std::string> trace;
  CommunicationCost cost;
};

RunArtifacts run_with(const ExperimentArtifacts& artifacts,
                      const ExperimentConfig& config,
                      const comm::CommConfig& comm, std::size_t threads,
                      const fault::FaultSchedule& faults = {},
                      const std::string& sampler_name = "mach") {
  HflOptions options = config.hfl;
  options.seed = config.seed;
  options.parallel.threads = threads;
  options.comm = comm;
  options.faults = faults;
  HflSimulator simulator(artifacts.train, artifacts.test, artifacts.partition,
                         artifacts.schedule, make_model_factory(config),
                         options);

  std::ostringstream trace_stream;
  obs::JsonlTraceOptions trace_options;
  trace_options.device_events = true;
  obs::JsonlTraceWriter trace(trace_stream, trace_options);
  simulator.set_observer(&trace);

  auto sampler = core::make_sampler(sampler_name);
  const MetricsRecorder metrics = simulator.run(*sampler, config.horizon);

  RunArtifacts result;
  result.params = simulator.global_parameters();
  result.cost = simulator.last_run_cost();
  // Unique per process: ctest runs these tests as concurrent processes, and
  // a shared scratch name races (write/read/remove on the same file).
  const std::string csv_path = ::testing::TempDir() + "comm_run_" +
                               std::to_string(threads) + "_" +
                               std::to_string(::getpid()) + ".csv";
  EXPECT_TRUE(metrics.write_csv(csv_path));
  result.csv = slurp(csv_path);
  std::remove(csv_path.c_str());
  simulator.set_observer(nullptr);
  result.trace = canonical_trace(trace_stream.str());
  return result;
}

void expect_same_run(const RunArtifacts& a, const RunArtifacts& b) {
  EXPECT_EQ(a.params, b.params);  // bitwise, no tolerance
  EXPECT_EQ(a.csv, b.csv);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i], b.trace[i]) << "event " << i;
  }
  EXPECT_EQ(a.cost.ledger, b.cost.ledger);
}

TEST(CommIntegration, ExplicitFp32MatchesTheDefaultBitwise) {
  // `--codec fp32` must be indistinguishable from not passing the flag: same
  // model path, same trace bytes, same ledger.
  const ExperimentConfig config = comm_scenario(61);
  const ExperimentArtifacts artifacts = build_experiment(config);
  const RunArtifacts implicit = run_with(artifacts, config, {}, 1);
  const RunArtifacts explicit_fp32 =
      run_with(artifacts, config, comm::CommConfig::parse("fp32"), 1);
  expect_same_run(implicit, explicit_fp32);
  // The fp32 ledger reproduces the legacy fp32 byte assumption exactly.
  EXPECT_FALSE(implicit.cost.ledger.empty());
  EXPECT_EQ(implicit.cost.ledger.total_bytes(),
            implicit.cost.assumed_fp32_bytes());
}

TEST(CommIntegration, LossyRunIsThreadCountDeterministic) {
  // All transcodes run on the coordinator in deterministic order, so the
  // bitwise-identical-at-any-thread-count contract extends to lossy codecs
  // (including the stateful top-k error-feedback path).
  const ExperimentConfig config = comm_scenario(62);
  const ExperimentArtifacts artifacts = build_experiment(config);
  const comm::CommConfig comm = comm::CommConfig::parse(
      "up=topk:k=0.25,down=bf16,probe=int8,edge_up=int8,cloud_down=bf16");
  const RunArtifacts serial = run_with(artifacts, config, comm, 1);
  ASSERT_FALSE(serial.params.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_run(run_with(artifacts, config, comm, threads), serial);
  }
}

TEST(CommIntegration, LossyCodecActuallyChangesTheModelPath) {
  // Sanity check that the lossy configuration above is not a no-op: the
  // trained parameters must differ from the fp32 run.
  const ExperimentConfig config = comm_scenario(63);
  const ExperimentArtifacts artifacts = build_experiment(config);
  const RunArtifacts fp32 = run_with(artifacts, config, {}, 1);
  const RunArtifacts lossy =
      run_with(artifacts, config, comm::CommConfig::parse("bf16"), 1);
  EXPECT_NE(fp32.params, lossy.params);
  // ...and its ledger is strictly smaller than the fp32 assumption.
  EXPECT_LT(lossy.cost.ledger.total_bytes(), lossy.cost.assumed_fp32_bytes());
}

// Satellite: under a straggler/dropout schedule, the ledger equals the
// message counters times the codec's value-independent payload size exactly
// — successful uploads plus every retransmission attempt, with the redundant
// retry share broken out, and dropped devices charged nothing.
TEST(CommIntegration, LedgerMatchesCountersTimesEncodedSizeUnderFaults) {
  const ExperimentConfig config = comm_scenario(64);
  const ExperimentArtifacts artifacts = build_experiment(config);
  const fault::FaultSchedule faults = fault::FaultSchedule::parse(
      "dropout:p=0.2;straggler:p=0.35,delay=1.5,timeout=1,backoff=0.5,"
      "retries=2;seed=99");

  for (const char* spec : {"fp32", "int8", "up=topk:k=0.1,down=bf16"}) {
    SCOPED_TRACE(spec);
    const comm::CommConfig comm = comm::CommConfig::parse(spec);
    const RunArtifacts run = run_with(artifacts, config, comm, 1, faults);
    const CommunicationCost& cost = run.cost;
    ASSERT_GT(cost.model_parameters, 0u);
    ASSERT_GT(cost.retry_uploads, 0u)
        << "schedule produced no retries — property not exercised";
    ASSERT_GT(cost.device_uploads, 0u);

    const auto size_of = [&](const comm::CodecSpec& link) {
      return comm::make_codec(link)->encoded_bytes(cost.model_parameters);
    };
    const comm::ByteLedger& ledger = cost.ledger;
    // Message counts mirror the legacy counters (uploads include retries).
    EXPECT_EQ(ledger.device_upload.messages, cost.device_uploads);
    EXPECT_EQ(ledger.retry_upload.messages, cost.retry_uploads);
    EXPECT_EQ(ledger.device_download.messages, cost.device_downloads);
    EXPECT_EQ(ledger.probe_download.messages, cost.probe_downloads);
    EXPECT_EQ(ledger.edge_upload.messages, cost.edge_uploads);
    EXPECT_EQ(ledger.cloud_broadcast.messages, cost.cloud_broadcasts);
    // Bytes are exactly messages x encoded payload, per link codec.
    EXPECT_EQ(ledger.device_upload.bytes,
              cost.device_uploads * size_of(comm.device_up));
    EXPECT_EQ(ledger.retry_upload.bytes,
              cost.retry_uploads * size_of(comm.device_up));
    EXPECT_EQ(ledger.device_download.bytes,
              cost.device_downloads * size_of(comm.device_down));
    EXPECT_EQ(ledger.probe_download.bytes,
              cost.probe_downloads * size_of(comm.probe));
    EXPECT_EQ(ledger.edge_upload.bytes,
              cost.edge_uploads * size_of(comm.edge_up));
    EXPECT_EQ(ledger.cloud_broadcast.bytes,
              cost.cloud_broadcasts * size_of(comm.cloud_down));
    if (comm.all_fp32()) {
      EXPECT_EQ(ledger.total_bytes(), cost.assumed_fp32_bytes());
    }
  }
}

TEST(CommIntegration, StatefulTopKResumeIsBitwiseIdentical) {
  // SIGKILL-and-resume with per-device error-feedback residuals in flight:
  // the v2 snapshot carries the residual bank and the last broadcast, so the
  // continued run is indistinguishable from the uninterrupted one.
  const ExperimentConfig config = comm_scenario(65);
  const ExperimentArtifacts built = build_experiment(config);
  const comm::CommConfig comm =
      comm::CommConfig::parse("up=topk:k=0.2,edge_up=int8");

  const auto options_for = [&](std::size_t threads, const std::string& dir) {
    HflOptions options = config.hfl;
    options.seed = config.seed;
    options.parallel.threads = threads;
    options.comm = comm;
    options.checkpoint.dir = dir;
    options.checkpoint.every = 3;
    return options;
  };
  const auto csv_of = [](const MetricsRecorder& metrics, const char* tag) {
    const std::string path = ::testing::TempDir() + tag + std::string(".csv");
    EXPECT_TRUE(metrics.write_csv(path));
    std::string content = slurp(path);
    std::remove(path.c_str());
    return content;
  };

  const std::string ref_dir = ::testing::TempDir() + "comm_ckpt_ref";
  const std::string crash_dir = ::testing::TempDir() + "comm_ckpt_crash";
  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
  const std::string ref_trace = ::testing::TempDir() + "comm_ckpt_ref.jsonl";
  const std::string crash_trace =
      ::testing::TempDir() + "comm_ckpt_crash.jsonl";

  RunArtifacts reference;
  {
    HflSimulator simulator(built.train, built.test, built.partition,
                           built.schedule, make_model_factory(config),
                           options_for(1, ref_dir));
    obs::JsonlTraceWriter trace(ref_trace);
    simulator.set_observer(&trace);
    auto sampler = core::make_sampler("mach");
    const MetricsRecorder metrics = simulator.run(*sampler, config.horizon);
    reference.csv = csv_of(metrics, "comm_ckpt_full");
    simulator.set_observer(nullptr);
    reference.params = simulator.global_parameters();
    reference.cost = simulator.last_run_cost();
  }
  reference.trace = canonical_trace(slurp(ref_trace));

  // The "crashed" run: deterministic, so its durable snapshots and trace
  // prefix are exactly the reference's. Re-run it into crash_dir, then
  // simulate the kill by appending debris past the last snapshot.
  {
    HflSimulator simulator(built.train, built.test, built.partition,
                           built.schedule, make_model_factory(config),
                           options_for(1, crash_dir));
    obs::JsonlTraceWriter trace(crash_trace);
    simulator.set_observer(&trace);
    auto sampler = core::make_sampler("mach");
    simulator.run(*sampler, config.horizon);
    simulator.set_observer(nullptr);
  }
  {
    std::ofstream debris(crash_trace, std::ios::app);
    debris << "{\"event\":\"step\",\"t\":999,\"active_edges\":1}\n";
    debris << "{\"event\":\"device\",\"t\":999,\"dev";  // torn final write
  }

  // Resume from the newest snapshot, at a different thread count.
  RunArtifacts resumed;
  {
    ckpt::CheckpointManager manager(crash_dir);
    auto loaded = manager.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->version, ckpt::kRunStateVersion);
    ckpt::ByteReader reader(loaded->payload);
    const ckpt::RunStateHeader header = ckpt::RunStateHeader::decode(reader);
    ASSERT_TRUE(header.has_trace_cursor);

    HflSimulator simulator(built.train, built.test, built.partition,
                           built.schedule, make_model_factory(config),
                           options_for(3, crash_dir));
    const obs::TraceCursor cursor{header.trace_bytes, header.trace_lines};
    obs::JsonlTraceWriter trace(crash_trace, cursor);
    simulator.set_observer(&trace);
    simulator.set_resume_payload(loaded->payload);
    auto sampler = core::make_sampler("mach");
    const MetricsRecorder metrics = simulator.run(*sampler, config.horizon);
    resumed.csv = csv_of(metrics, "comm_ckpt_resumed");
    simulator.set_observer(nullptr);
    resumed.params = simulator.global_parameters();
    resumed.cost = simulator.last_run_cost();
  }
  resumed.trace = canonical_trace(slurp(crash_trace));

  expect_same_run(resumed, reference);

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
  std::remove(ref_trace.c_str());
  std::remove(crash_trace.c_str());
}

TEST(CommIntegration, TraceRecordsCodecAndLedger) {
  const ExperimentConfig config = comm_scenario(66);
  const ExperimentArtifacts artifacts = build_experiment(config);
  const RunArtifacts lossy =
      run_with(artifacts, config, comm::CommConfig::parse("int8"), 1);
  ASSERT_FALSE(lossy.trace.empty());
  // run_begin carries the codec spec; run_end carries the byte ledger.
  EXPECT_NE(lossy.trace.front().find("\"codec\":\"int8\""), std::string::npos)
      << lossy.trace.front();
  EXPECT_NE(lossy.trace.back().find("\"comm\":{"), std::string::npos)
      << lossy.trace.back();
  EXPECT_NE(lossy.trace.back().find("\"device_upload\""), std::string::npos);

  // The fp32 default omits the codec field (exact legacy run_begin bytes)
  // but still reports the ledger.
  const RunArtifacts fp32 = run_with(artifacts, config, {}, 1);
  EXPECT_EQ(fp32.trace.front().find("\"codec\""), std::string::npos)
      << fp32.trace.front();
  EXPECT_NE(fp32.trace.back().find("\"comm\":{"), std::string::npos);
}

}  // namespace
}  // namespace mach::hfl
