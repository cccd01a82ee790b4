// Runtime-subsystem throughput bench: devices-trained/sec and steps/sec of
// the parallel execution runtime on one synthetic workload, swept over a
// list of thread counts (default 1/2/4 plus the hardware thread count).
//
// Unlike the figure benches this measures the engine, not the paper: every
// sweep point replays the *same* simulation (bitwise-identical global
// parameters, asserted at the end), so any throughput difference is pure
// runtime behaviour. Results are printed as a table and written as
// BENCH_runtime.json for trend tracking.
//
//   ./throughput [--threads_list 1,2,4,0] [--steps 40] [--out BENCH_runtime.json]
#include "bench_util.h"

#include <algorithm>
#include <fstream>

#include "common/table.h"
#include "obs/json.h"
#include "obs/resource.h"
#include "runtime/parallel_config.h"

namespace {

using namespace mach;

std::vector<std::size_t> parse_thread_list(const std::string& flag) {
  // Comma-separated counts; 0 resolves to the hardware thread count and
  // duplicates collapse (so the default list degrades gracefully on small
  // machines).
  std::vector<std::size_t> threads;
  std::size_t value = 0;
  bool have_digit = false;
  for (const char c : flag + ",") {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::size_t>(c - '0');
      have_digit = true;
    } else if (c == ',') {
      if (!have_digit) throw std::invalid_argument("bad --threads_list: " + flag);
      threads.push_back(
          runtime::resolve_threads(runtime::ParallelConfig{value}));
      value = 0;
      have_digit = false;
    } else {
      throw std::invalid_argument("bad --threads_list: " + flag);
    }
  }
  std::vector<std::size_t> unique;
  for (const std::size_t t : threads) {
    if (std::find(unique.begin(), unique.end(), t) == unique.end()) {
      unique.push_back(t);
    }
  }
  return unique;
}

struct SweepPoint {
  std::size_t threads = 0;
  double wall_seconds = 0.0;
  double train_seconds = 0.0;     // DeviceTraining phase wall time
  std::uint64_t devices_trained = 0;
  double devices_per_second = 0.0;
  double steps_per_second = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "Runtime throughput: devices-trained/sec across thread counts.");
  cli.add_flag("threads_list", std::string("1,2,4,0"),
               "comma-separated thread counts to sweep (0 = all hardware "
               "threads; duplicates collapse)");
  cli.add_flag("devices", static_cast<std::int64_t>(24), "devices");
  cli.add_flag("edges", static_cast<std::int64_t>(3), "edges");
  cli.add_flag("steps", static_cast<std::int64_t>(40), "time steps per run");
  cli.add_flag("local_epochs", static_cast<std::int64_t>(6), "I per device");
  cli.add_flag("batch", static_cast<std::int64_t>(24), "local batch size");
  cli.add_flag("hidden", static_cast<std::int64_t>(160), "MLP hidden width");
  cli.add_flag("sampler", std::string("mach"), "sampling strategy to drive");
  cli.add_flag("out", std::string("BENCH_runtime.json"), "JSON output path");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  // One fixed synthetic workload, sized so device training dominates: a
  // wider MLP than the smoke preset and 6 local epochs per sampled device.
  auto config = hfl::ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = static_cast<std::size_t>(cli.get_int("devices"));
  config.num_edges = static_cast<std::size_t>(cli.get_int("edges"));
  config.train_per_device = 40;
  config.test_examples = 256;
  config.mlp_hidden = static_cast<std::size_t>(cli.get_int("hidden"));
  config.data_spec.height = 12;
  config.data_spec.width = 12;
  config.horizon = static_cast<std::size_t>(cli.get_int("steps"));
  config.hfl.local_epochs = static_cast<std::size_t>(cli.get_int("local_epochs"));
  config.hfl.batch_size = static_cast<std::size_t>(cli.get_int("batch"));
  config.hfl.participation = 0.6;
  config = config.with_seed(11);

  const auto thread_counts = parse_thread_list(cli.get_string("threads_list"));
  const auto artifacts = hfl::build_experiment(config);
  const auto hardware = runtime::resolve_threads(runtime::ParallelConfig{0});

  std::cout << "=== runtime throughput ===\n"
            << "workload: " << config.num_devices << " devices / "
            << config.num_edges << " edges, I=" << config.hfl.local_epochs
            << ", batch " << config.hfl.batch_size << ", hidden "
            << config.mlp_hidden << ", " << config.horizon << " steps, sampler "
            << cli.get_string("sampler") << "\n"
            << "hardware threads: " << hardware << "\n\n";

  std::vector<SweepPoint> points;
  std::vector<float> reference_params;
  bool identical = true;
  for (const std::size_t threads : thread_counts) {
    hfl::HflOptions options = config.hfl;
    options.seed = config.seed;
    options.parallel.threads = threads;
    hfl::HflSimulator simulator(artifacts.train, artifacts.test,
                                artifacts.partition, artifacts.schedule,
                                hfl::make_model_factory(config), options);
    auto sampler = core::make_sampler(cli.get_string("sampler"));
    const bench::Stopwatch watch;
    simulator.run(*sampler, config.horizon);
    SweepPoint point;
    point.threads = threads;
    point.wall_seconds = watch.seconds();
    point.train_seconds =
        simulator.phase_timers()[obs::Phase::DeviceTraining].total_seconds;
    const obs::MetricsSnapshot snapshot = simulator.metrics_registry().snapshot();
    for (const auto& entry : snapshot.counters) {
      if (entry.name == "devices_trained") point.devices_trained = entry.value;
    }
    if (point.train_seconds > 0.0) {
      point.devices_per_second =
          static_cast<double>(point.devices_trained) / point.train_seconds;
    }
    if (point.wall_seconds > 0.0) {
      point.steps_per_second =
          static_cast<double>(config.horizon) / point.wall_seconds;
    }
    points.push_back(point);
    if (reference_params.empty()) {
      reference_params = simulator.global_parameters();
    } else if (simulator.global_parameters() != reference_params) {
      identical = false;
    }
  }

  const double serial_rate = points.front().devices_per_second;
  common::Table table({"threads", "wall s", "train s", "devices/s", "steps/s",
                       "speedup"});
  for (const auto& p : points) {
    table.row()
        .cell(p.threads)
        .cell(p.wall_seconds, 3)
        .cell(p.train_seconds, 3)
        .cell(p.devices_per_second, 1)
        .cell(p.steps_per_second, 2)
        .cell(serial_rate > 0.0 ? p.devices_per_second / serial_rate : 0.0, 2);
  }
  table.print(std::cout);
  std::cout << "\nglobal parameters across thread counts: "
            << (identical ? "bitwise identical" : "MISMATCH (bug!)") << "\n";

  std::string results = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    obs::JsonObjectWriter w;
    w.begin();
    w.field("threads", static_cast<std::uint64_t>(p.threads));
    w.field("wall_seconds", p.wall_seconds);
    w.field("device_training_seconds", p.train_seconds);
    w.field("devices_trained", p.devices_trained);
    w.field("devices_per_second", p.devices_per_second);
    w.field("steps_per_second", p.steps_per_second);
    w.field("speedup_vs_serial",
            serial_rate > 0.0 ? p.devices_per_second / serial_rate : 0.0);
    if (i != 0) results += ',';
    results += w.end();
  }
  results += ']';

  obs::JsonObjectWriter w;
  w.begin();
  w.field("bench", "runtime_throughput");
  w.field("hardware_threads", static_cast<std::uint64_t>(hardware));
  w.field("sampler", cli.get_string("sampler"));
  w.field("devices", static_cast<std::uint64_t>(config.num_devices));
  w.field("edges", static_cast<std::uint64_t>(config.num_edges));
  w.field("steps", static_cast<std::uint64_t>(config.horizon));
  w.field("local_epochs", static_cast<std::uint64_t>(config.hfl.local_epochs));
  w.field("batch_size", static_cast<std::uint64_t>(config.hfl.batch_size));
  w.field("mlp_hidden", static_cast<std::uint64_t>(config.mlp_hidden));
  w.field("identical_parameters", identical);
  w.raw_field("hardware", obs::hardware_json());
  w.raw_field("results", results);

  const std::string out_path = cli.get_string("out");
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << w.end() << "\n";
  std::cout << "results written to " << out_path << "\n";
  return identical ? 0 : 1;
}
