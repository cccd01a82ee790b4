#include "core/ucb.h"

#include <algorithm>
#include <cmath>

#include "ckpt/bytes.h"

namespace mach::core {

UcbEstimator::UcbEstimator(std::size_t num_devices, UcbOptions options)
    : options_(options),
      buffer_sum_(num_devices, 0.0),
      buffer_count_(num_devices, 0),
      max_round_avg_(num_devices, 0.0),
      flags_(num_devices, 0),
      counts_(num_devices, 0) {}

void UcbEstimator::record(std::uint32_t device,
                          std::span<const double> grad_sq_norms) {
  double& sum = buffer_sum_.at(device);
  // Left-to-right fold in arrival order: the same additions, in the same
  // order, the buffered representation performed at refresh time.
  for (const double g : grad_sq_norms) sum += g;
  ++counts_[device];
  if (!grad_sq_norms.empty()) {
    buffer_count_[device] += static_cast<std::uint32_t>(grad_sq_norms.size());
    if ((flags_[device] & kInActiveList) == 0) {
      flags_[device] |= kInActiveList;
      active_.push_back(device);
    }
  }
}

void UcbEstimator::on_cloud_round(std::size_t t,
                                  std::vector<std::uint32_t>* folded) {
  last_cloud_t_ = t;
  // Ascending device order — the same visit order as a full O(M) sweep over
  // the devices with non-empty buffers, so the fold is bitwise unchanged.
  std::sort(active_.begin(), active_.end());
  for (const std::uint32_t m : active_) {
    const double mean =
        buffer_sum_[m] / static_cast<double>(buffer_count_[m]);
    if ((flags_[m] & kHasEstimate) == 0 || mean > max_round_avg_[m]) {
      max_round_avg_[m] = mean;
    }
    flags_[m] |= kHasEstimate;
    population_max_ = std::max(population_max_, max_round_avg_[m]);
    if (options_.clear_buffer_on_cloud_round) {
      buffer_sum_[m] = 0.0;
      buffer_count_[m] = 0;
      flags_[m] &= static_cast<std::uint8_t>(~kInActiveList);
    }
  }
  if (folded != nullptr) folded->assign(active_.begin(), active_.end());
  if (options_.clear_buffer_on_cloud_round) active_.clear();
}

double UcbEstimator::exploitation(std::uint32_t device) const {
  if ((flags_.at(device) & kHasEstimate) != 0) return max_round_avg_[device];
  // Optimistic prior: an unexplored device is assumed at least as
  // informative as the best seen so far.
  return options_.optimistic_init ? population_max_ : 0.0;
}

double UcbEstimator::exploration(std::uint32_t device) const {
  if (!options_.use_exploration) return 0.0;
  const double count =
      static_cast<double>(std::max<std::uint32_t>(counts_.at(device), 1));
  const double numerator =
      std::log(static_cast<double>(std::max<std::size_t>(last_cloud_t_, 2)));
  return options_.exploration_weight * std::sqrt(numerator / count);
}

double UcbEstimator::estimate(std::uint32_t device) const {
  return exploitation(device) + exploration(device);
}

std::size_t UcbEstimator::memory_bytes() const noexcept {
  return buffer_sum_.capacity() * sizeof(double) +
         buffer_count_.capacity() * sizeof(std::uint32_t) +
         max_round_avg_.capacity() * sizeof(double) +
         flags_.capacity() * sizeof(std::uint8_t) +
         counts_.capacity() * sizeof(std::uint32_t) +
         active_.capacity() * sizeof(std::uint32_t);
}

void UcbEstimator::save_state(ckpt::ByteWriter& out) const {
  out.u64(buffer_sum_.size());
  for (std::size_t m = 0; m < buffer_sum_.size(); ++m) {
    out.f64(buffer_sum_[m]);
    out.u64(buffer_count_[m]);
  }
  out.vec_f64(max_round_avg_);
  for (std::size_t m = 0; m < flags_.size(); ++m) {
    out.boolean((flags_[m] & kHasEstimate) != 0);
  }
  out.u64(counts_.size());
  for (const std::uint32_t c : counts_) out.u64(c);
  out.f64(population_max_);
  out.u64(last_cloud_t_);
}

void UcbEstimator::load_state(ckpt::ByteReader& in) {
  const std::uint64_t devices = in.u64();
  if (devices != buffer_sum_.size()) {
    throw ckpt::CorruptPayload("UcbEstimator: snapshot device count mismatch");
  }
  for (std::size_t m = 0; m < buffer_sum_.size(); ++m) {
    buffer_sum_[m] = in.f64();
    buffer_count_[m] = static_cast<std::uint32_t>(in.u64());
  }
  max_round_avg_ = in.vec_f64();
  if (max_round_avg_.size() != buffer_sum_.size()) {
    throw ckpt::CorruptPayload("UcbEstimator: snapshot size mismatch");
  }
  for (std::size_t m = 0; m < flags_.size(); ++m) {
    flags_[m] = in.boolean() ? kHasEstimate : 0;
  }
  if (in.u64() != counts_.size()) {
    throw ckpt::CorruptPayload("UcbEstimator: snapshot count-vector mismatch");
  }
  for (auto& c : counts_) c = static_cast<std::uint32_t>(in.u64());
  population_max_ = in.f64();
  last_cloud_t_ = static_cast<std::size_t>(in.u64());
  // Rebuild the active list from the restored buffer occupancy.
  active_.clear();
  for (std::size_t m = 0; m < buffer_count_.size(); ++m) {
    if (buffer_count_[m] > 0) {
      flags_[m] |= kInActiveList;
      active_.push_back(static_cast<std::uint32_t>(m));
    }
  }
}

}  // namespace mach::core
