#include "service/scheduler.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <utility>

#include "common/fault.h"

namespace valmod::service {

namespace {

double ElapsedSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// Runs one job. An allocation the process cannot satisfy fails that
/// request with a structured error instead of taking the server down.
Result<std::string> RunJob(const QueryScheduler::Job& job,
                           const Deadline& deadline) {
  try {
    return job(deadline);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("request exhausted memory");
  }
}

}  // namespace

Result<std::string> QueryScheduler::Ticket::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return result_.has_value(); });
  return *result_;
}

bool QueryScheduler::Ticket::Done() {
  std::lock_guard<std::mutex> lock(mutex_);
  return result_.has_value();
}

void QueryScheduler::Ticket::Cancel() {
  cancelled_->store(true, std::memory_order_relaxed);
}

QueryScheduler::QueryScheduler(const SchedulerOptions& options)
    : options_(options) {
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() {
  std::vector<std::shared_ptr<Ticket>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    orphans.assign(queue_.begin(), queue_.end());
    queue_.clear();
    counters_.cancelled += orphans.size();
  }
  work_cv_.notify_all();
  // Resolve outside the lock: waiters may wake immediately and re-enter
  // scheduler accessors.
  for (const auto& ticket : orphans) {
    Resolve(ticket, Status::DeadlineExceeded("scheduler shut down"));
  }
  for (std::thread& worker : workers_) worker.join();
}

int QueryScheduler::RetryHintMsLocked() const {
  const int workers = std::max(1, options_.num_workers);
  const double backlog = static_cast<double>(queue_.size()) + 1.0;
  const double hint = mean_service_ms_ * backlog / workers;
  return static_cast<int>(std::clamp(hint, 1.0, 30000.0));
}

double QueryScheduler::StallThresholdSeconds(double timeout_seconds) const {
  if (!std::isfinite(timeout_seconds) || timeout_seconds <= 0.0) return -1.0;
  return options_.watchdog_factor * timeout_seconds;
}

Result<std::shared_ptr<QueryScheduler::Ticket>> QueryScheduler::Submit(
    Job job, int priority, Deadline deadline) {
  return Submit(std::move(job), priority, deadline, Completion());
}

Result<std::shared_ptr<QueryScheduler::Ticket>> QueryScheduler::Submit(
    Job job, int priority, Deadline deadline, Completion completion) {
  auto ticket = std::make_shared<Ticket>();
  ticket->job_ = std::move(job);
  ticket->completion_ = std::move(completion);
  ticket->priority_ = priority;
  ticket->timeout_seconds_ = deadline.SecondsRemaining();
  // The job observes cancellation through its own deadline checks.
  ticket->deadline_ = deadline.WithCancelFlag(ticket->cancelled_);
  std::shared_ptr<Ticket> victim;
  int victim_hint = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      return Status::FailedPrecondition("scheduler is shut down");
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Full. Shed the lowest-priority queued request if the newcomer
      // strictly outranks it; otherwise the newcomer is the lowest-value
      // work and is the one turned away.
      const auto last = queue_.empty() ? queue_.end() : std::prev(queue_.end());
      if (options_.shed_on_overload && last != queue_.end() &&
          (*last)->priority_ < priority) {
        victim = *last;
        queue_.erase(last);
        ++counters_.shed;
        victim_hint = RetryHintMsLocked();
      } else {
        ++counters_.rejected;
        const int hint = RetryHintMsLocked();
        return Status::ResourceExhausted(
                   "admission queue full (" +
                   std::to_string(options_.queue_capacity) +
                   " requests waiting)")
            .SetRetryAfterMs(hint);
      }
    }
    ticket->sequence_ = next_sequence_++;
    ticket->admitted_at_ = std::chrono::steady_clock::now();
    queue_.insert(ticket);
    ++counters_.admitted;
  }
  if (victim) {
    Resolve(victim, Status::ResourceExhausted(
                        "shed from admission queue by a higher-priority "
                        "request")
                        .SetRetryAfterMs(victim_hint));
  }
  work_cv_.notify_one();
  return ticket;
}

SchedulerStats QueryScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats stats = counters_;
  stats.queue_depth = queue_.size();
  stats.active = active_;
  stats.mean_service_ms = service_time_observed_ ? mean_service_ms_ : 0.0;
  stats.mean_queue_wait_ms =
      started_ > 0 ? total_queue_wait_ms_ / static_cast<double>(started_)
                   : 0.0;
  stats.retry_after_ms = RetryHintMsLocked();
  std::size_t stalled = 0;
  for (const auto& [ticket, info] : active_info_) {
    const double threshold = StallThresholdSeconds(info.timeout_seconds);
    if (threshold >= 0.0 && ElapsedSeconds(info.started_at) > threshold) {
      ++stalled;
    }
  }
  stats.stalled = stalled;
  return stats;
}

void QueryScheduler::Resolve(const std::shared_ptr<Ticket>& ticket,
                             Result<std::string> result) {
  Completion completion;
  {
    std::lock_guard<std::mutex> lock(ticket->mutex_);
    if (!ticket->result_.has_value()) {
      ticket->result_.emplace(std::move(result));
      // Claim the completion under the same latch that makes the result
      // write exactly-once; a second Resolve finds it already moved out.
      completion = std::move(ticket->completion_);
      ticket->completion_ = nullptr;
    }
  }
  ticket->cv_.notify_all();
  // Outside both locks: the callback may re-enter the scheduler (e.g. a
  // coalescing fail-over resubmits the next waiter's job). Reading result_
  // unlocked is safe — only the thread that latched it holds a completion,
  // and the latch guarantees no later write.
  if (completion) completion(*ticket->result_);
}

void QueryScheduler::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Ticket> ticket;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      ticket = *queue_.begin();
      queue_.erase(queue_.begin());
      // Pre-start gates, decided under the lock so counters are exact.
      if (ticket->cancelled_->load(std::memory_order_relaxed)) {
        ++counters_.cancelled;
        lock.unlock();
        Resolve(ticket, Status::DeadlineExceeded(
                            "request cancelled before execution"));
        continue;
      }
      if (ticket->deadline_.Expired()) {
        ++counters_.expired;
        lock.unlock();
        Resolve(ticket, Status::DeadlineExceeded(
                            "deadline expired before execution"));
        continue;
      }
      const double wait_ms = ElapsedSeconds(ticket->admitted_at_) * 1e3;
      ++started_;
      total_queue_wait_ms_ += wait_ms;
      counters_.max_queue_wait_ms =
          std::max(counters_.max_queue_wait_ms, wait_ms);
      ++active_;
      active_info_[ticket.get()] =
          ActiveInfo{std::chrono::steady_clock::now(),
                     ticket->timeout_seconds_};
    }

    // The stall fault point models a worker wedged in (or failed by) the
    // backend: a delay spec holds the worker here — visible to the
    // watchdog — while an error spec fails the request as if the engine
    // call itself had faulted.
    const Status fault = VALMOD_FAULT_POINT("scheduler.worker.stall");
    Result<std::string> result =
        fault.ok() ? RunJob(ticket->job_, ticket->deadline_)
                   : Result<std::string>(fault);
    // Counters first, then Resolve: a waiter woken by Resolve must already
    // see this request as completed in stats().
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = active_info_.find(ticket.get());
      if (it != active_info_.end()) {
        const double elapsed_s = ElapsedSeconds(it->second.started_at);
        const double threshold =
            StallThresholdSeconds(it->second.timeout_seconds);
        if (threshold >= 0.0 && elapsed_s > threshold) ++counters_.overruns;
        // EWMA: smooth enough to ride out one outlier, fresh enough that
        // the retry hint tracks a load shift within a few requests.
        const double elapsed_ms = elapsed_s * 1e3;
        mean_service_ms_ = service_time_observed_
                               ? 0.8 * mean_service_ms_ + 0.2 * elapsed_ms
                               : elapsed_ms;
        service_time_observed_ = true;
        active_info_.erase(it);
      }
      --active_;
      ++counters_.completed;
    }
    Resolve(ticket, std::move(result));
  }
}

}  // namespace valmod::service
