// Self-healing sweep orchestrator: runs every point of a SweepSpec as a
// supervised experiment_runner child process and drives each one through
// the state machine
//
//   pending -> running -> done
//                      -> retry (exponential backoff + deterministic jitter)
//                      -> quarantined (after max_attempts failures, or one
//                         non-retryable configuration error)
//
// Supervision is heartbeat-based: each child rewrites a status.json and the
// watchdog SIGKILLs it when the heartbeat shows no progress (skew-immune;
// see obs/heartbeat.h) for `watchdog_seconds`. Retries always pass
// --resume, so a killed child continues from its newest durable snapshot
// rather than step 0. Every state transition is an fsynced record in the
// crash-safe journal (sweep/journal.h) keyed by config fingerprint:
// SIGKILL the orchestrator at any instant, rerun the same spec, and
// completed points are skipped, interrupted ones resume, and the final
// report comes out byte-identical to an uninterrupted sweep's.
//
// SIGTERM/SIGINT drain gracefully via `drain_flag`: stop launching, forward
// SIGTERM so in-flight children checkpoint and exit (code 75), and return
// with `drained=true` and a journal a rerun picks up.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>

#include "sweep/journal.h"
#include "sweep/spec.h"

namespace mach::sweep {

struct OrchestratorOptions {
  std::string runner_binary;       // experiment_runner path (required)
  std::string out_dir;             // sweep root: journal, runs/, report.json
  std::size_t parallel = 1;        // concurrent children
  std::uint32_t max_attempts = 3;  // failures before quarantine
  double watchdog_seconds = 30.0;  // heartbeat staleness before SIGKILL
  double poll_seconds = 0.05;      // supervision loop period
  double backoff_base_seconds = 0.25;
  double backoff_cap_seconds = 5.0;
  std::int64_t checkpoint_every = 5;  // --checkpoint_every for every child
  std::int64_t checkpoint_keep = 2;
  /// Crash-test harness: raise(SIGKILL) on ourselves right after the Nth
  /// Done record of this process becomes durable (0 = off). Children die
  /// with us via PR_SET_PDEATHSIG, exactly like a real orchestrator crash.
  std::size_t kill_after_points = 0;
  /// Cooperative drain flag (typically set by a signal handler).
  const volatile std::sig_atomic_t* drain_flag = nullptr;
};

struct SweepResult {
  std::size_t total = 0;        // spec points after dedupe
  std::size_t done = 0;         // completed, including prior runs' work
  std::size_t ran_here = 0;     // completed by this invocation
  std::size_t quarantined = 0;  // given up, with failure history journaled
  std::size_t pending = 0;      // unresolved (nonzero only after a drain)
  bool drained = false;          // a drain stopped the sweep with pending > 0
  std::string report_path;  // written only when every point is resolved
};

/// Runs the sweep to resolution (or drain). Throws std::runtime_error for
/// orchestrator-level failures: unusable out_dir, journal I/O errors, or a
/// fingerprint collision between the spec and the journal.
SweepResult run_sweep(const SweepSpec& spec, const OrchestratorOptions& options);

/// Renders the deterministic aggregated report for a fully-resolved sweep:
/// one JSON document, points in expansion order, per-point metrics parsed
/// from each run's curve.csv and failure histories for quarantined points.
/// Contains no timestamps, durations or attempt counts for completed points,
/// which is what makes interrupted-and-resumed sweeps byte-identical.
std::string render_report(const SweepSpec& spec, const SweepJournal& journal,
                          const std::string& runs_dir);

}  // namespace mach::sweep
