// Negative controls for the harness's correctness checks.
//
//   perfbench_controls [scratch_dir]
//
// Every check the workloads apply is run twice on a small real run of the
// program: once on the genuine output, where it must pass, and once on a
// deliberately broken input, where it must fail. A check that cannot fail
// shows nothing; this program exits 1 if any control does not trip (or any
// genuine case fails).
#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "ckpt/bytes.h"
#include "ckpt/file.h"
#include "ckpt/manager.h"
#include "comm/codec.h"
#include "core/registry.h"
#include "core/scale_sim.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "probes.h"

namespace {

using namespace perfbench;
namespace mhfl = mach::hfl;
namespace fs = std::filesystem;

int failures = 0;

void control(const std::string& name, const Check& genuine, const Check& broken) {
  const bool ok = genuine.ok && !broken.ok;
  if (!ok) ++failures;
  std::cout << (ok ? "ok   " : "FAIL ") << name << "\n"
            << "       genuine: " << (genuine.ok ? "pass" : "FAIL") << " - "
            << genuine.detail << "\n"
            << "       broken:  " << (broken.ok ? "PASS (not tripped)" : "tripped")
            << " - " << broken.detail << "\n";
}

/// A small smoke world: enough steps for two cloud rounds and snapshots.
mhfl::ExperimentConfig small_config(mach::data::TaskKind task) {
  auto config = mhfl::ExperimentConfig::smoke(task);
  config.num_devices = 16;
  config.num_edges = 2;
  config.train_per_device = 30;
  config.test_examples = 200;
  config.horizon = 20;
  config.hfl.local_epochs = 2;
  config.hfl.cloud_interval = 5;
  return config.with_seed(3);
}

struct SmallRun {
  std::unique_ptr<SamplerProbe> sampler;
  std::unique_ptr<StepTimeline> timeline;
  mhfl::MetricsRecorder metrics;
  std::vector<float> final_global;
};

SmallRun run_small(const mhfl::ExperimentConfig& config,
                   std::function<void(std::vector<double>&)> transform = {},
                   std::vector<std::uint8_t> resume = {}) {
  auto world = mhfl::build_experiment(config);
  mhfl::HflOptions options = config.hfl;
  options.seed = config.seed;
  mhfl::HflSimulator sim(world.train, world.test, std::move(world.partition),
                         world.schedule, mhfl::make_model_factory(config), options);
  SmallRun run;
  run.sampler = std::make_unique<SamplerProbe>(mach::core::make_sampler("mach"), true,
                                               options.min_probability, false,
                                               std::move(transform));
  run.timeline = std::make_unique<StepTimeline>(nullptr, 1);
  sim.set_observer(run.timeline.get());
  if (!resume.empty()) sim.set_resume_payload(std::move(resume));
  run.metrics = sim.run(*run.sampler, config.horizon);
  run.final_global = sim.global_parameters();
  return run;
}

std::vector<float> perturbed(std::vector<float> params) {
  params[params.size() / 2] = std::nextafter(params[params.size() / 2], 1e30f);
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path scratch = argc > 1 ? fs::path(argv[1]) : fs::path("perfbench-controls");
  fs::create_directories(scratch);

  // Eq. 3: an over-budget decorator doubles every q the sampler returns.
  const auto config = small_config(mach::data::TaskKind::MnistLike);
  const SmallRun genuine = run_small(config);
  const SmallRun inflated =
      run_small(config, [](std::vector<double>& q) { for (double& v : q) v *= 2.0; });
  control("eq3_budget: over-budget sampler decorator",
          check_budget("genuine", genuine.sampler->budget()),
          check_budget("inflated", inflated.sampler->budget()));

  // Participation: realised count moved 10 sigma off the expectation.
  const BudgetLedger& budget = genuine.sampler->budget();
  const auto shifted = static_cast<std::uint64_t>(
      budget.expected_participants + 10.0 * std::sqrt(budget.participant_variance) + 2.0);
  control("participation: realised count off by 10 sigma",
          check_participation("genuine", budget, genuine.timeline->sampled),
          check_participation("shifted", budget, shifted));

  // Byte ledger: one upload more than the events account for.
  const auto up = mach::comm::make_codec(config.hfl.comm.device_up);
  const std::size_t params = genuine.final_global.size();
  const auto& ledger = genuine.timeline->ledger.device_upload;
  control("byte_ledger: one unaccounted upload",
          check_byte_ledger("genuine", ledger.messages, ledger.bytes,
                            genuine.timeline->expected_uploads, up->encoded_bytes(params)),
          check_byte_ledger("extra", ledger.messages + 1,
                            ledger.bytes + up->encoded_bytes(params),
                            genuine.timeline->expected_uploads, up->encoded_bytes(params)));

  // steps_to_target: the harness's curve differs from the program's at one
  // evaluation point, lifted above the target.
  const std::vector<mhfl::MetricsRecorder> recorders = {genuine.metrics};
  std::vector<std::vector<EvalSample>> observed = {genuine.timeline->evals};
  const auto program =
      mhfl::curve_time_to_target(mhfl::average_curves(recorders), config.target_accuracy);
  auto lifted = observed;
  lifted[0][0].accuracy = 1.0;
  control("steps_to_target: one evaluation point altered",
          check_steps_equal("genuine", program,
                            recompute_steps_to_target(observed, config.target_accuracy)),
          check_steps_equal("altered", program,
                            recompute_steps_to_target(lifted, config.target_accuracy)));

  // Accuracy floor: chance-level accuracy.
  control("accuracy_floor: chance-level final accuracy",
          check_accuracy_floor("genuine", genuine.metrics.final_accuracy(),
                               config.data_spec.classes),
          check_accuracy_floor("chance", 1.0 / static_cast<double>(config.data_spec.classes),
                               config.data_spec.classes));

  // Thread invariance: 1 vs 2 workers, then one parameter perturbed.
  auto threaded = config;
  threaded.hfl.parallel.threads = 2;
  const SmallRun parallel = run_small(threaded);
  control("thread_invariance: one parameter perturbed",
          check_bitwise_equal("genuine", genuine.final_global, parallel.final_global),
          check_bitwise_equal("perturbed", genuine.final_global,
                              perturbed(parallel.final_global)));

  // Resume identity and fault rates on a faulty, snapshotting run.
  auto resilient = small_config(mach::data::TaskKind::CifarLike);
  resilient.hfl.faults = mach::fault::FaultSchedule::parse(
      "dropout:p=0.1;straggler:p=0.2,timeout=1.5;cloud_loss:p=0.05");
  resilient.hfl.comm = mach::comm::CommConfig::parse("up=int8,down=bf16");
  const fs::path snaps = scratch / "snaps";
  fs::remove_all(snaps);
  resilient.hfl.checkpoint.every = resilient.hfl.cloud_interval;
  resilient.hfl.checkpoint.dir = snaps.string();
  resilient.hfl.checkpoint.keep = resilient.horizon;
  const SmallRun uninterrupted = run_small(resilient);
  const auto listed = mach::ckpt::CheckpointManager(snaps.string(), resilient.horizon).list();
  auto blob = mach::ckpt::read_checkpoint_file(listed.at(listed.size() / 2));
  auto resumed_config = resilient;
  resumed_config.hfl.checkpoint.dir = (scratch / "snaps_resume").string();
  const SmallRun resumed = run_small(resumed_config, {}, std::move(blob->payload));
  control("resume_identity: one parameter perturbed",
          check_bitwise_equal("genuine", uninterrupted.final_global, resumed.final_global),
          check_bitwise_equal("perturbed", uninterrupted.final_global,
                              perturbed(resumed.final_global)));
  const StepTimeline& faults = *uninterrupted.timeline;
  const double p = resilient.hfl.faults.dropout.probability;
  const auto inflated_drops = static_cast<std::uint64_t>(
      static_cast<double>(faults.sampled) * p +
      6.0 * std::sqrt(static_cast<double>(faults.sampled) * p * (1.0 - p)) + 2.0);
  control("fault_rate: dropouts 6 sigma above the schedule",
          check_binomial_rate("genuine", faults.dropped, faults.sampled, p),
          check_binomial_rate("inflated", inflated_drops, faults.sampled, p));
  fs::remove_all(scratch);

  // ScaleSimulator conservation and save/load replay.
  mach::core::ScaleConfig scale;
  scale.num_devices = 20'000;
  scale.num_edges = 20;
  scale.seed = 5;
  mach::core::ScaleSimulator sim(scale);
  ScaleLedger kept, dropped;
  std::vector<std::size_t> sizes(scale.num_edges);
  for (int round = 0; round < 6; ++round) {
    const std::size_t t = sim.t();
    const auto stats = sim.step();
    for (std::size_t n = 0; n < scale.num_edges; ++n) sizes[n] = sim.edge_members(n).size();
    kept.record(t, sizes, scale.num_devices, scale.participation, stats.participants);
    sizes[0] -= 1;  // one member of edge 0 goes missing
    dropped.record(t, sizes, scale.num_devices, scale.participation, stats.participants);
  }
  control("scale_conservation: one edge member dropped",
          check_scale_ledger("genuine", kept), check_scale_ledger("dropped", dropped));

  mach::ckpt::ByteWriter snapshot;
  sim.save_state(snapshot);
  std::vector<std::uint64_t> expected, replayed;
  for (int i = 0; i < 3; ++i) expected.push_back(sim.step().sample_digest);
  mach::core::ScaleSimulator restored(scale);
  mach::ckpt::ByteReader reader(snapshot.data());
  restored.load_state(reader);
  for (int i = 0; i < 3; ++i) replayed.push_back(restored.step().sample_digest);
  auto flipped = replayed;
  flipped.back() ^= 1;
  control("scale_save_load: one round digest altered",
          check_digests_equal("genuine", expected, replayed),
          check_digests_equal("altered", expected, flipped));

  std::cout << (failures == 0 ? "all controls tripped\n"
                              : std::to_string(failures) + " control(s) failed\n");
  return failures == 0 ? 0 : 1;
}
