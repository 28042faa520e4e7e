#include "ftm/runtime/batcher.hpp"

#include <algorithm>

#include "ftm/util/assert.hpp"

namespace ftm::runtime {

const char* to_string(Priority p) {
  switch (p) {
    case Priority::Latency: return "latency";
    case Priority::Normal: return "normal";
    case Priority::Bulk: return "bulk";
  }
  return "?";
}

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue-full";
    case RejectReason::DeadlineUnmeetable: return "deadline-unmeetable";
    case RejectReason::Shutdown: return "shutdown";
  }
  return "?";
}

Batcher::Batcher(const BatchOptions& bo) : bo_(bo) {
  FTM_EXPECTS(bo_.max_batch >= 1);
  FTM_EXPECTS(bo_.max_delay_ms >= 0);
  FTM_EXPECTS(bo_.max_held >= 1);
}

Batcher::Key Batcher::key_of(const Request& r) {
  Key k;
  k.cls = r.cls;
  k.functional = r.opt.functional;
  k.force = static_cast<int>(r.opt.force);
  k.dynamic_blocks = r.opt.dynamic_blocks;
  k.pingpong = r.opt.pingpong;
  return k;
}

Batcher::Flush Batcher::pop_locked(
    std::map<Key, std::vector<std::unique_ptr<Request>>>::iterator it,
    const char* trigger) {
  Flush f;
  f.members = std::move(it->second);
  f.cls = it->first.cls;
  f.trigger = trigger;
  held_ -= f.members.size();
  pending_.erase(it);
  return f;
}

std::optional<Batcher::Flush> Batcher::add(std::unique_ptr<Request> req) {
  const std::lock_guard<std::mutex> lock(mu_);
  const Key k = key_of(*req);
  auto it = pending_.try_emplace(k).first;
  it->second.push_back(std::move(req));
  ++held_;
  if (static_cast<int>(it->second.size()) >= bo_.max_batch) {
    return pop_locked(it, "size");
  }
  if (held_ >= bo_.max_held) {
    // Pressure: flush the largest class (ties -> smallest key, so the
    // choice is deterministic for a deterministic submission order).
    auto largest = pending_.begin();
    for (auto j = pending_.begin(); j != pending_.end(); ++j) {
      if (j->second.size() > largest->second.size()) largest = j;
    }
    return pop_locked(largest, "pressure");
  }
  return std::nullopt;
}

std::vector<Batcher::Flush> Batcher::take_aged(
    std::chrono::steady_clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Flush> out;
  const auto budget =
      std::chrono::duration<double, std::milli>(bo_.max_delay_ms);
  for (auto it = pending_.begin(); it != pending_.end();) {
    FTM_EXPECTS(!it->second.empty());
    const auto oldest = it->second.front()->submit_time;
    if (now - oldest >= budget) {
      auto next = std::next(it);
      out.push_back(pop_locked(it, "age"));
      it = next;
    } else {
      ++it;
    }
  }
  return out;
}

std::vector<Batcher::Flush> Batcher::take_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Flush> out;
  while (!pending_.empty()) {
    out.push_back(pop_locked(pending_.begin(), "flush"));
  }
  return out;
}

std::size_t Batcher::held() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return held_;
}

}  // namespace ftm::runtime
