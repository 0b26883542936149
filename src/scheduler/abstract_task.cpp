#include "scheduler/abstract_task.hpp"

#include <utility>

#include "hyrise.hpp"
#include "scheduler/abstract_scheduler.hpp"
#include "utils/assert.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise {

void AbstractTask::SetAsPredecessorOf(const std::shared_ptr<AbstractTask>& successor) {
  Assert(!IsDone(), "Cannot add successors to a finished task");
  successors_.push_back(successor);
  successor->pending_dependencies_.fetch_add(1, std::memory_order_acq_rel);
}

void AbstractTask::Schedule(NodeID node_id) {
  preferred_node_id = node_id;
  ReleaseDependency();
}

void AbstractTask::Join() {
  auto lock = std::unique_lock{done_mutex_};
  done_condition_.wait(lock, [&] {
    return done_.load(std::memory_order_acquire);
  });
}

void AbstractTask::Execute() {
  const auto already_started = started_.exchange(true, std::memory_order_acq_rel);
  Assert(!already_started, "Task executed twice");
  DebugAssert(pending_dependencies_.load(std::memory_order_acquire) == 0,
              "Task executed before its predecessors finished");

  // Skip the body if a predecessor failed — its output does not exist, and
  // unwinding into a pool worker would terminate the process. The task still
  // "finishes" so that waiters and successors make progress.
  if (!upstream_failed_.load(std::memory_order_acquire)) {
    try {
      FAILPOINT("scheduler/execute");
      OnExecute();
    } catch (...) {
      exception_ = std::current_exception();
    }
  }

  const auto propagate_failure = failed();
  {
    const auto lock = std::lock_guard{done_mutex_};
    done_.store(true, std::memory_order_release);
  }
  done_condition_.notify_all();

  for (const auto& successor : successors_) {
    if (propagate_failure) {
      successor->MarkUpstreamFailed();
    }
    successor->ReleaseDependency();
  }
}

void AbstractTask::RethrowTaskFailure(const std::vector<std::shared_ptr<AbstractTask>>& tasks) {
  for (const auto& task : tasks) {
    if (task->exception_) {
      // Hand the exception over, so that its last reference drops on this
      // thread. Dropped by a pool worker releasing the task, the exception
      // would be destroyed after this thread's reads ordered only by
      // exception_ptr's reference count inside uninstrumented libstdc++,
      // which ThreadSanitizer reports as a data race.
      std::rethrow_exception(std::exchange(task->exception_, nullptr));
    }
  }
}

void AbstractTask::ReleaseDependency() {
  const auto previous = pending_dependencies_.fetch_sub(1, std::memory_order_acq_rel);
  Assert(previous != 0, "Task scheduled twice");
  if (previous == 1) {
    Hyrise::Get().scheduler()->ScheduleTask(shared_from_this());
  }
}

}  // namespace hyrise
