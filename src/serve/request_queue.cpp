#include "src/serve/request_queue.hpp"

#include <algorithm>

#include "src/util/fault.hpp"

namespace graphner::serve {

BatchQueue::PushResult BatchQueue::push(PendingRequest&& request) {
  // Chaos hook: a slow producer (queue.push stall) widens the race windows
  // the shutdown/overload tests probe.
  util::fault_stall_point("queue.push");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return PushResult::kShutdown;
    if (queue_.size() >= policy_.max_queue_depth) return PushResult::kOverloaded;
    queue_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return PushResult::kAccepted;
}

bool BatchQueue::pop_batch(std::vector<PendingRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return !queue_.empty() || shutdown_; });
  if (queue_.empty()) return false;  // shutdown and fully drained

  // Work-conserving: take whatever is waiting, up to max_batch, now.
  const std::size_t take = std::min(queue_.size(), policy_.max_batch);
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  // If more than max_batch piled up, another worker can start immediately.
  if (!queue_.empty()) not_empty_.notify_one();
  return true;
}

void BatchQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
}

std::size_t BatchQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace graphner::serve
