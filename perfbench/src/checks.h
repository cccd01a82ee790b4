// Whole-run correctness checks applied by the benchmark harness.
//
// Each check compares what the program produced against an independent
// computation or a property of the method (Eq. 3's budget, Bernoulli
// participation, the byte ledger, thread invariance, resume identity, fault
// rates, ScaleSimulator conservation). Every check is a pure function of
// recorded values so that perfbench_controls can feed it a deliberately
// broken input and show that it fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Outcome of one whole-run check (one operation in the run's tally).
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Eq. 3 ledger fed with every raw q vector a sampler returns.
struct BudgetLedger {
  /// The sampler promises sum(q) <= K_n per edge (core::SamplerInfo).
  bool edge_budgeted = true;
  std::uint64_t calls = 0;
  std::uint64_t over_budget = 0;   // calls with sum(q) > K_n
  std::uint64_t out_of_range = 0;  // entries outside (0, 1]
  double worst_excess = 0.0;       // max over calls of sum(q) - K_n
  /// Sum of clamp(q, floor, 1): the Bernoulli expectation of participants.
  double expected_participants = 0.0;
  /// Sum of clamp(q)(1 - clamp(q)): its variance.
  double participant_variance = 0.0;

  void record(std::span<const double> q, double capacity, double min_probability);
  /// Adds another ledger's decisions (same sampler, other runs).
  void absorb(const BudgetLedger& other);
};

/// Every edge-budgeted call satisfied sum(q) <= K_n and every q in (0, 1].
Check check_budget(const std::string& label, const BudgetLedger& ledger);

/// Realised participations lie within 5 sigma of the Bernoulli expectation.
Check check_participation(const std::string& label, const BudgetLedger& ledger,
                          std::uint64_t realised);

/// Link bytes equal messages x Codec::encoded_bytes(P), and the message count
/// equals the count derived independently from the run's events.
Check check_byte_ledger(const std::string& label, std::uint64_t messages,
                        std::uint64_t bytes, std::uint64_t expected_messages,
                        std::uint64_t bytes_per_message);

/// `events` out of `trials` Bernoulli(p) trials lies within 5 sigma of n p.
Check check_binomial_rate(const std::string& label, std::uint64_t events,
                          std::uint64_t trials, double p);

/// Final accuracy above twice chance.
Check check_accuracy_floor(const std::string& label, double accuracy,
                           std::size_t classes);

/// Bitwise equality of two parameter vectors.
Check check_bitwise_equal(const std::string& label, std::span<const float> expected,
                          std::span<const float> actual);

/// Equality of two integer sequences (round digests).
Check check_digests_equal(const std::string& label,
                          std::span<const std::uint64_t> expected,
                          std::span<const std::uint64_t> actual);

/// Equality of two optional step counts (steps-to-target, program vs harness).
Check check_steps_equal(const std::string& label, std::optional<std::size_t> program,
                        std::optional<std::size_t> recomputed);

/// One evaluation point as the harness observed it.
struct EvalSample {
  std::size_t t = 0;
  double accuracy = 0.0;
};

/// Steps-to-target recomputed from observed evaluation curves: the seed-mean
/// curve (summed in run order, divided by the run count, over the points all
/// runs share) and the first evaluation step at which it reaches `target`.
std::optional<std::size_t> recompute_steps_to_target(
    const std::vector<std::vector<EvalSample>>& curves, double target);

/// ScaleSimulator round invariants, accumulated over a run:
/// sum_n |M_n| = M, and participants = sum_n min(|M_n|, K_n) with
/// K_n = max(1, round(participation |M_n|)).
struct ScaleLedger {
  std::uint64_t rounds = 0;
  std::uint64_t conservation_failures = 0;
  std::uint64_t participant_failures = 0;
  std::string first_failure;

  void record(std::size_t t, std::span<const std::size_t> edge_sizes,
              std::size_t devices, double participation, std::size_t participants);
};

Check check_scale_ledger(const std::string& label, const ScaleLedger& ledger);

}  // namespace perfbench
