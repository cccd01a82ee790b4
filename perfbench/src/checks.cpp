#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

Check make(const std::string& name, bool ok, const std::string& detail) {
  return Check{name, ok, detail};
}

template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream out;
  out.precision(10);
  (out << ... << args);
  return out.str();
}

}  // namespace

void BudgetLedger::record(std::span<const double> q, double capacity,
                          double min_probability) {
  ++calls;
  double total = 0.0;
  bool bad_entry = false;
  for (const double value : q) {
    if (!(value > 0.0 && value <= 1.0)) bad_entry = true;
    total += value;
    const double clamped = std::clamp(value, min_probability, 1.0);
    expected_participants += clamped;
    participant_variance += clamped * (1.0 - clamped);
  }
  if (bad_entry) ++out_of_range;
  if (edge_budgeted) {
    // Same absolute slack the sampler conformance suite grants rounding.
    const double excess = total - capacity;
    if (excess > 1e-9) {
      ++over_budget;
      worst_excess = std::max(worst_excess, excess);
    }
  }
}

void BudgetLedger::absorb(const BudgetLedger& other) {
  calls += other.calls;
  over_budget += other.over_budget;
  out_of_range += other.out_of_range;
  worst_excess = std::max(worst_excess, other.worst_excess);
  expected_participants += other.expected_participants;
  participant_variance += other.participant_variance;
}

Check check_budget(const std::string& label, const BudgetLedger& ledger) {
  const bool ok = ledger.calls > 0 && ledger.over_budget == 0 &&
                  ledger.out_of_range == 0;
  return make("eq3_budget:" + label, ok,
              cat(ledger.calls, " edge decisions, ", ledger.over_budget,
                  " over K_n (worst excess ", ledger.worst_excess, "), ",
                  ledger.out_of_range, " with q outside (0,1]",
                  ledger.edge_budgeted ? "" : " (budget not edge-level)"));
}

Check check_participation(const std::string& label, const BudgetLedger& ledger,
                          std::uint64_t realised) {
  const double sigma = std::sqrt(ledger.participant_variance);
  const double gap = std::abs(static_cast<double>(realised) -
                              ledger.expected_participants);
  // +1 absorbs the integer realisation when every q is 0 or 1 (sigma = 0).
  const bool ok = gap <= 5.0 * sigma + 1.0;
  return make("participation:" + label, ok,
              cat("realised ", realised, " vs expected ",
                  ledger.expected_participants, " (5 sigma = ", 5.0 * sigma, ")"));
}

Check check_byte_ledger(const std::string& label, std::uint64_t messages,
                        std::uint64_t bytes, std::uint64_t expected_messages,
                        std::uint64_t bytes_per_message) {
  const bool ok = messages == expected_messages &&
                  bytes == messages * bytes_per_message;
  return make("byte_ledger:" + label, ok,
              cat(messages, " messages (expected ", expected_messages, "), ",
                  bytes, " bytes (expected ", expected_messages * bytes_per_message,
                  " = messages x ", bytes_per_message, ")"));
}

Check check_binomial_rate(const std::string& label, std::uint64_t events,
                          std::uint64_t trials, double p) {
  const double n = static_cast<double>(trials);
  const double sigma = std::sqrt(n * p * (1.0 - p));
  const double gap = std::abs(static_cast<double>(events) - n * p);
  const bool ok = trials > 0 && gap <= 5.0 * sigma + 1.0;
  return make("fault_rate:" + label, ok,
              cat(events, " of ", trials, " (rate ",
                  trials > 0 ? static_cast<double>(events) / n : 0.0,
                  ", scheduled p ", p, ", 5 sigma = ", 5.0 * sigma, ")"));
}

Check check_accuracy_floor(const std::string& label, double accuracy,
                           std::size_t classes) {
  const double floor = classes > 0 ? 2.0 / static_cast<double>(classes) : 1.0;
  return make("accuracy_floor:" + label, accuracy > floor,
              cat("final accuracy ", accuracy, " vs floor ", floor));
}

Check check_bitwise_equal(const std::string& label, std::span<const float> expected,
                          std::span<const float> actual) {
  if (expected.size() != actual.size() || expected.empty()) {
    return make(label, false,
                cat("size ", actual.size(), " vs expected ", expected.size()));
  }
  std::size_t differing = 0;
  std::size_t first = expected.size();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(float)) != 0) {
      if (differing == 0) first = i;
      ++differing;
    }
  }
  return make(label, differing == 0,
              differing == 0
                  ? cat(expected.size(), " parameters bitwise equal")
                  : cat(differing, " of ", expected.size(),
                        " parameters differ (first at ", first, ")"));
}

Check check_digests_equal(const std::string& label,
                          std::span<const std::uint64_t> expected,
                          std::span<const std::uint64_t> actual) {
  const bool ok = !expected.empty() && expected.size() == actual.size() &&
                  std::equal(expected.begin(), expected.end(), actual.begin());
  return make(label, ok,
              cat(expected.size(), " round digests ", ok ? "equal" : "differ"));
}

Check check_steps_equal(const std::string& label, std::optional<std::size_t> program,
                        std::optional<std::size_t> recomputed) {
  const auto show = [](std::optional<std::size_t> v) {
    return v ? std::to_string(*v) : std::string("never");
  };
  return make("steps_to_target:" + label, program == recomputed,
              "program " + show(program) + ", recomputed " + show(recomputed));
}

std::optional<std::size_t> recompute_steps_to_target(
    const std::vector<std::vector<EvalSample>>& curves, double target) {
  if (curves.empty()) return std::nullopt;
  std::size_t points = curves.front().size();
  for (const auto& curve : curves) points = std::min(points, curve.size());
  for (std::size_t i = 0; i < points; ++i) {
    double sum = 0.0;
    for (const auto& curve : curves) sum += curve[i].accuracy;
    if (sum / static_cast<double>(curves.size()) >= target) {
      return curves.front()[i].t;
    }
  }
  return std::nullopt;
}

void ScaleLedger::record(std::size_t t, std::span<const std::size_t> edge_sizes,
                         std::size_t devices, double participation,
                         std::size_t participants) {
  ++rounds;
  std::size_t members = 0;
  std::size_t expected = 0;
  for (const std::size_t size : edge_sizes) {
    members += size;
    const auto budget = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(participation * static_cast<double>(size))));
    expected += std::min(size, budget);
  }
  if (members != devices) {
    ++conservation_failures;
    if (first_failure.empty()) {
      first_failure = cat("round ", t, ": sum |M_n| = ", members, " != M = ", devices);
    }
  }
  if (participants != expected) {
    ++participant_failures;
    if (first_failure.empty()) {
      first_failure = cat("round ", t, ": participants ", participants,
                          " != sum min(|M_n|, K_n) = ", expected);
    }
  }
}

Check check_scale_ledger(const std::string& label, const ScaleLedger& ledger) {
  const bool ok = ledger.rounds > 0 && ledger.conservation_failures == 0 &&
                  ledger.participant_failures == 0;
  return make("scale_conservation:" + label, ok,
              ok ? cat(ledger.rounds, " rounds conserve devices and budgets")
                 : ledger.first_failure);
}

}  // namespace perfbench
