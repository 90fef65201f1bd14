#include "serve/queue.h"

namespace merlin {

// Invariant: every lane is non-empty (created on first push, reaped the
// moment its last job is popped), so `cursor_` always points at a servable
// lane after the mod.

bool AdmissionQueue::try_push(QueuedJob job) {
  if (closed_ || count_ >= capacity_) return false;
  Lane* lane = nullptr;
  for (Lane& l : lanes_)
    if (l.client == job.client) {
      lane = &l;
      break;
    }
  if (lane == nullptr) {
    lanes_.push_back(Lane{job.client, {}});
    lane = &lanes_.back();
  }
  lane->jobs.push_back(std::move(job));
  ++count_;
  return true;
}

std::optional<QueuedJob> AdmissionQueue::pop() {
  if (count_ == 0) return std::nullopt;
  if (cursor_ >= lanes_.size()) cursor_ = 0;
  Lane& lane = lanes_[cursor_];
  QueuedJob job = std::move(lane.jobs.front());
  lane.jobs.pop_front();
  --count_;
  if (lane.jobs.empty()) {
    // Reap; the next lane slides into `cursor_`, so the rotation continues
    // without skipping anyone.
    lanes_.erase(lanes_.begin() + static_cast<std::ptrdiff_t>(cursor_));
  } else {
    ++cursor_;
  }
  if (!lanes_.empty()) cursor_ %= lanes_.size();
  else cursor_ = 0;
  return job;
}

std::optional<std::size_t> AdmissionQueue::position(
    std::uint64_t job_id) const {
  // Replay the pop rotation on a copy of the lane shape; the k-th simulated
  // pop that would yield `job_id` is its dispatch distance.
  std::vector<std::deque<const QueuedJob*>> sim;
  sim.reserve(lanes_.size());
  for (const Lane& l : lanes_) {
    sim.emplace_back();
    for (const QueuedJob& j : l.jobs) sim.back().push_back(&j);
  }
  std::size_t cur = cursor_;
  for (std::size_t k = 0; k < count_; ++k) {
    if (cur >= sim.size()) cur = 0;
    const QueuedJob* j = sim[cur].front();
    sim[cur].pop_front();
    if (j->job_id == job_id) return k;
    if (sim[cur].empty()) {
      sim.erase(sim.begin() + static_cast<std::ptrdiff_t>(cur));
    } else {
      ++cur;
    }
    if (!sim.empty()) cur %= sim.size();
  }
  return std::nullopt;
}

std::size_t AdmissionQueue::lane_depth(std::uint64_t client) const {
  for (const Lane& l : lanes_)
    if (l.client == client) return l.jobs.size();
  return 0;
}

}  // namespace merlin
