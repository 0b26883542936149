#ifndef HYRISE_SRC_SCHEDULER_ABSTRACT_TASK_HPP_
#define HYRISE_SRC_SCHEDULER_ABSTRACT_TASK_HPP_

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "types/types.hpp"

namespace hyrise {

/// The scheduler's unit of work (paper §2.9): an operator, a subroutine of an
/// operator, or any other job. Tasks may depend on other tasks; a task only
/// enters a queue when all predecessors finished. Once a worker starts a task
/// it runs to completion (cooperative, non-preemptive).
///
/// Failure model: a throwing task body never unwinds into a worker thread
/// (which would std::terminate the process). Execute() captures the exception,
/// still completes the task, and marks every successor as upstream-failed so
/// dependent operators are skipped instead of reading missing inputs. The
/// thread that waits on the task set observes the failure via
/// RethrowTaskFailure (called from ScheduleAndWaitForTasks).
class AbstractTask : public std::enable_shared_from_this<AbstractTask> {
 public:
  AbstractTask() = default;
  AbstractTask(const AbstractTask&) = delete;
  AbstractTask& operator=(const AbstractTask&) = delete;
  virtual ~AbstractTask() = default;

  /// Declares that `successor` must not start before this task finished.
  /// Call before scheduling `successor`.
  void SetAsPredecessorOf(const std::shared_ptr<AbstractTask>& successor);

  bool IsDone() const {
    return done_.load(std::memory_order_acquire);
  }

  /// True if this task's body threw, or a (transitive) predecessor's did and
  /// this task was therefore skipped. Only meaningful once IsDone().
  bool failed() const {
    return exception_ != nullptr || upstream_failed_.load(std::memory_order_acquire);
  }

  /// The captured exception of this task's own body (null if it succeeded or
  /// was skipped because of an upstream failure).
  const std::exception_ptr& exception() const {
    return exception_;
  }

  /// Rethrows the first captured exception among `tasks`, if any, and clears
  /// it from its task. Call after all tasks finished — the waiting thread,
  /// not a pool worker, must see the failure.
  static void RethrowTaskFailure(const std::vector<std::shared_ptr<AbstractTask>>& tasks);

  /// Hands the task to the current scheduler (it runs once all predecessors
  /// finished). Call at most once per task. `preferred_node_id` hints data
  /// locality on NUMA systems.
  void Schedule(NodeID preferred_node_id = kCurrentNodeId);

  /// Blocks until the task finished executing.
  void Join();

  /// Runs the task body and wakes up ready successors. Called by workers (or
  /// directly by the immediate-execution scheduler).
  void Execute();

  NodeID preferred_node_id{kCurrentNodeId};

 protected:
  virtual void OnExecute() = 0;

 private:
  /// Counts down one pending dependency; the decrement that reaches zero
  /// enqueues the task.
  void ReleaseDependency();

  void MarkUpstreamFailed() {
    upstream_failed_.store(true, std::memory_order_release);
  }

  std::vector<std::shared_ptr<AbstractTask>> successors_;
  /// Unfinished predecessors plus one for the outstanding Schedule() call.
  /// Schedule() and each finishing predecessor decrement it, so exactly one
  /// atomic step — whichever comes last — sees zero and enqueues the task.
  std::atomic<uint32_t> pending_dependencies_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> upstream_failed_{false};
  std::exception_ptr exception_;
  std::mutex done_mutex_;
  std::condition_variable done_condition_;
};

/// A task wrapping a function object — "the easiest type of task has been
/// modeled after std::thread" (paper §2.9).
class JobTask final : public AbstractTask {
 public:
  explicit JobTask(std::function<void()> job) : job_(std::move(job)) {}

 protected:
  void OnExecute() final {
    job_();
  }

 private:
  std::function<void()> job_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_SCHEDULER_ABSTRACT_TASK_HPP_
