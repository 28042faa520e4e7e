#include "ftm/runtime/plan_cache.hpp"

namespace ftm::runtime {

std::optional<core::GemmPlan> PlanCache::find(const PlanKey& key) const {
  std::shared_lock lock(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) return std::nullopt;
  return it->second;
}

void PlanCache::insert(const PlanKey& key, const core::GemmPlan& plan) {
  std::unique_lock lock(mu_);
  plans_.emplace(key, plan);  // no-op if a racing miss got here first
}

std::size_t PlanCache::size() const {
  std::shared_lock lock(mu_);
  return plans_.size();
}

}  // namespace ftm::runtime
