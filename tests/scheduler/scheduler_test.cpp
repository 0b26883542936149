#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "hyrise.hpp"
#include "operators/table_wrapper.hpp"
#include "operators/union_all.hpp"
#include "scheduler/abstract_scheduler.hpp"
#include "scheduler/job_helpers.hpp"
#include "scheduler/node_queue_scheduler.hpp"
#include "scheduler/operator_task.hpp"
#include "test_utils.hpp"
#include "utils/gdfs_cache.hpp"

namespace hyrise {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
  }

  void TearDown() override {
    Hyrise::Get().SetScheduler(std::make_shared<ImmediateExecutionScheduler>());
  }
};

TEST_F(SchedulerTest, ImmediateExecutionRunsInline) {
  auto executed = false;
  auto task = std::make_shared<JobTask>([&] {
    executed = true;
  });
  task->Schedule();
  EXPECT_TRUE(executed) << "immediate scheduler executes during Schedule()";
  EXPECT_TRUE(task->IsDone());
}

TEST_F(SchedulerTest, DependenciesRespectOrderInline) {
  auto order = std::vector<int>{};
  auto first = std::make_shared<JobTask>([&] {
    order.push_back(1);
  });
  auto second = std::make_shared<JobTask>([&] {
    order.push_back(2);
  });
  first->SetAsPredecessorOf(second);
  // Scheduling the successor first must not run it before its predecessor.
  second->Schedule();
  EXPECT_TRUE(order.empty());
  first->Schedule();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SchedulerTest, NodeQueueSchedulerExecutesManyTasks) {
  Hyrise::Get().SetScheduler(std::make_shared<NodeQueueScheduler>(1, 4));
  auto counter = std::atomic<int>{0};
  auto tasks = std::vector<std::shared_ptr<AbstractTask>>{};
  for (auto index = 0; index < 200; ++index) {
    tasks.push_back(std::make_shared<JobTask>([&] {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  Hyrise::Get().scheduler()->ScheduleAndWaitForTasks(tasks);
  EXPECT_EQ(counter.load(), 200);
}

TEST_F(SchedulerTest, NodeQueueSchedulerHonorsDependencyChains) {
  Hyrise::Get().SetScheduler(std::make_shared<NodeQueueScheduler>(2, 2));
  auto value = std::atomic<int>{0};
  auto tasks = std::vector<std::shared_ptr<AbstractTask>>{};
  // Chain of 50 tasks, each multiplying then adding — order-sensitive.
  for (auto index = 0; index < 50; ++index) {
    tasks.push_back(std::make_shared<JobTask>([&value, index] {
      auto expected = value.load();
      value.store(expected + index);
    }));
    if (index > 0) {
      tasks[index - 1]->SetAsPredecessorOf(tasks[index]);
    }
  }
  Hyrise::Get().scheduler()->ScheduleAndWaitForTasks(tasks);
  EXPECT_EQ(value.load(), 49 * 50 / 2);
}

TEST_F(SchedulerTest, SuccessorScheduledWhilePredecessorFinishesRunsExactlyOnce) {
  // Regression test: Schedule() on a successor races with its last
  // predecessor finishing on a worker. Exactly one of the two must enqueue the
  // successor — both doing so aborts with "Task executed twice", neither doing
  // so leaves it unscheduled forever. The predecessor spins until released;
  // a busy-wait that varies per iteration slides the successor's Schedule()
  // across the predecessor's completion.
  Hyrise::Get().SetScheduler(std::make_shared<NodeQueueScheduler>(1, 4));
  constexpr auto kIterations = 1000;
  auto successor_runs = std::atomic<int>{0};
  for (auto iteration = 0; iteration < kIterations; ++iteration) {
    auto started = std::atomic<bool>{false};
    auto release = std::atomic<bool>{false};
    auto predecessor = std::make_shared<JobTask>([&] {
      started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
      }
    });
    auto successor = std::make_shared<JobTask>([&] {
      successor_runs.fetch_add(1, std::memory_order_relaxed);
    });
    predecessor->SetAsPredecessorOf(successor);
    predecessor->Schedule();
    while (!started.load(std::memory_order_acquire)) {
    }
    release.store(true, std::memory_order_release);
    for (auto spin = 0; spin < iteration % 256; ++spin) {
      started.load(std::memory_order_acquire);
    }
    successor->Schedule();

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (!successor->IsDone() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(successor->IsDone()) << "successor never enqueued in iteration " << iteration;
    predecessor->Join();
  }
  EXPECT_EQ(successor_runs.load(), kIterations);
}

TEST_F(SchedulerTest, WorkStealingDrainsOtherNodesQueues) {
  // All tasks prefer node 1; node 0's workers must steal to finish.
  const auto scheduler = std::make_shared<NodeQueueScheduler>(2, 1);
  Hyrise::Get().SetScheduler(scheduler);
  auto counter = std::atomic<int>{0};
  auto tasks = std::vector<std::shared_ptr<AbstractTask>>{};
  for (auto index = 0; index < 64; ++index) {
    auto task = std::make_shared<JobTask>([&] {
      counter.fetch_add(1);
    });
    task->Schedule(NodeID{1});
    tasks.push_back(task);
  }
  for (const auto& task : tasks) {
    task->Join();
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST_F(SchedulerTest, OperatorTasksMirrorThePqp) {
  const auto table = MakeTable({{"a", DataType::kInt}}, {{1}, {2}});
  auto left = std::make_shared<TableWrapper>(table);
  auto right = std::make_shared<TableWrapper>(table);
  auto union_all = std::make_shared<UnionAll>(left, right);
  const auto tasks = OperatorTask::MakeTasksFromOperator(union_all);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(std::static_pointer_cast<OperatorTask>(tasks.back())->GetOperator(), union_all);

  Hyrise::Get().SetScheduler(std::make_shared<NodeQueueScheduler>(1, 2));
  Hyrise::Get().scheduler()->ScheduleAndWaitForTasks(tasks);
  EXPECT_EQ(union_all->get_output()->row_count(), 4u);
}

TEST_F(SchedulerTest, DiamondPqpCreatesOneTaskPerOperator) {
  const auto table = MakeTable({{"a", DataType::kInt}}, {{1}});
  auto shared = std::make_shared<TableWrapper>(table);
  auto union_all = std::make_shared<UnionAll>(shared, shared);
  const auto tasks = OperatorTask::MakeTasksFromOperator(union_all);
  EXPECT_EQ(tasks.size(), 2u) << "shared input yields one task";
}

TEST_F(SchedulerTest, FinishDrainsQueuedTasksInsteadOfDroppingThem) {
  // Regression test: Finish() must execute tasks that are still queued when
  // shutdown begins, not drop them. A single slow worker guarantees a backlog
  // exists at the moment Finish() is called.
  const auto scheduler = std::make_shared<NodeQueueScheduler>(1, 1);
  Hyrise::Get().SetScheduler(scheduler);
  auto counter = std::atomic<int>{0};
  auto tasks = std::vector<std::shared_ptr<AbstractTask>>{};
  tasks.push_back(std::make_shared<JobTask>([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    counter.fetch_add(1);
  }));
  for (auto index = 0; index < 100; ++index) {
    tasks.push_back(std::make_shared<JobTask>([&] {
      counter.fetch_add(1);
    }));
  }
  for (const auto& task : tasks) {
    task->Schedule();
  }
  scheduler->Finish();  // No wait before shutdown — the backlog must drain.
  EXPECT_EQ(counter.load(), 101);
  EXPECT_EQ(scheduler->active_task_count(), 0u);
  for (const auto& task : tasks) {
    EXPECT_TRUE(task->IsDone());
  }
}

TEST_F(SchedulerTest, FinishDrainsDependencyChainsScheduledLate) {
  // Successors become ready only when their predecessor finishes — possibly
  // after shutdown has been signalled. The drain loop must pick them up too.
  const auto scheduler = std::make_shared<NodeQueueScheduler>(1, 1);
  Hyrise::Get().SetScheduler(scheduler);
  auto order = std::vector<int>{};
  auto tasks = std::vector<std::shared_ptr<AbstractTask>>{};
  for (auto index = 0; index < 20; ++index) {
    tasks.push_back(std::make_shared<JobTask>([&order, index] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      order.push_back(index);
    }));
    if (index > 0) {
      tasks[index - 1]->SetAsPredecessorOf(tasks[index]);
    }
  }
  for (const auto& task : tasks) {
    task->Schedule();
  }
  scheduler->Finish();
  ASSERT_EQ(order.size(), 20u);
  for (auto index = 0; index < 20; ++index) {
    EXPECT_EQ(order[index], index);
  }
}

TEST_F(SchedulerTest, WorkerFanOutDoesNotDeadlockWithOneWorker) {
  // An operator running on the pool's only worker fans out per-chunk jobs and
  // waits for them (paper §2.9). With a naively blocking wait the sub-jobs
  // could never run; the worker-aware wait executes them itself.
  Hyrise::Get().SetScheduler(std::make_shared<NodeQueueScheduler>(1, 1));
  auto inner_sum = std::atomic<int>{0};
  auto outer = std::vector<std::shared_ptr<AbstractTask>>{};
  outer.push_back(std::make_shared<JobTask>([&] {
    auto jobs = std::vector<std::function<void()>>{};
    for (auto index = 1; index <= 10; ++index) {
      jobs.emplace_back([&inner_sum, index] {
        inner_sum.fetch_add(index);
      });
    }
    SpawnAndWaitForJobs(std::move(jobs));
  }));
  SpawnAndWaitForTasks(outer);
  EXPECT_EQ(inner_sum.load(), 55);
}

TEST_F(SchedulerTest, NestedFanOutTwoLevelsDeep) {
  // Fan-out inside fan-out — e.g. a parallel operator whose per-chunk job
  // materializes a column, which itself fans out. Still just one worker.
  Hyrise::Get().SetScheduler(std::make_shared<NodeQueueScheduler>(1, 1));
  auto leaf_count = std::atomic<int>{0};
  auto outer_jobs = std::vector<std::function<void()>>{};
  for (auto outer_index = 0; outer_index < 4; ++outer_index) {
    outer_jobs.emplace_back([&leaf_count] {
      auto inner_jobs = std::vector<std::function<void()>>{};
      for (auto inner_index = 0; inner_index < 4; ++inner_index) {
        inner_jobs.emplace_back([&leaf_count] {
          leaf_count.fetch_add(1);
        });
      }
      SpawnAndWaitForJobs(std::move(inner_jobs));
    });
  }
  SpawnAndWaitForJobs(std::move(outer_jobs));
  EXPECT_EQ(leaf_count.load(), 16);
}

TEST_F(SchedulerTest, ZeroWorkersPerNodeResolvesToHardwareConcurrency) {
  const auto scheduler = std::make_shared<NodeQueueScheduler>(1, 0);
  const auto expected = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(scheduler->worker_count(), expected);
  EXPECT_EQ(scheduler->node_count(), 1u);

  // Spread across two nodes, with at least one worker per node.
  const auto two_nodes = std::make_shared<NodeQueueScheduler>(2, 0);
  EXPECT_EQ(two_nodes->worker_count(), 2 * std::max(1u, expected / 2));
}

TEST_F(SchedulerTest, CurrentSchedulerFallsBackToImmediateExecution) {
  // Fresh Hyrise instance: SpawnAndWaitForJobs must work without anyone
  // installing a scheduler — the immediate scheduler runs the jobs inline.
  EXPECT_EQ(CurrentScheduler()->worker_count(), 0u);
  auto executed = false;
  auto jobs = std::vector<std::function<void()>>{};
  jobs.emplace_back([&] {
    executed = true;
  });
  SpawnAndWaitForJobs(std::move(jobs));
  EXPECT_TRUE(executed);
}

TEST(GdfsCacheTest, EvictsLowestPriority) {
  auto cache = GdfsCache<std::string, int>{2};
  cache.Set("a", 1);
  cache.Set("b", 2);
  cache.TryGet("a");
  cache.TryGet("a");  // "a" is now hot.
  cache.Set("c", 3);  // Evicts "b".
  EXPECT_TRUE(cache.Has("a"));
  EXPECT_FALSE(cache.Has("b"));
  EXPECT_TRUE(cache.Has("c"));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(GdfsCacheTest, AgingLetsNewEntriesSurvive) {
  auto cache = GdfsCache<std::string, int>{2};
  cache.Set("old1", 1);
  for (auto hit = 0; hit < 10; ++hit) {
    cache.TryGet("old1");
  }
  cache.Set("old2", 2);
  cache.Set("new1", 3);  // Evicts old2 (lower priority), inflation rises.
  EXPECT_FALSE(cache.Has("old2"));
  // After eviction-driven inflation, a fresh entry beats a stale hot one
  // eventually.
  cache.Set("new2", 4);
  EXPECT_TRUE(cache.Has("new2"));
}

TEST(GdfsCacheTest, HitAndMissCounters) {
  auto cache = GdfsCache<std::string, int>{4};
  cache.Set("x", 1);
  EXPECT_TRUE(cache.TryGet("x").has_value());
  EXPECT_FALSE(cache.TryGet("y").has_value());
  EXPECT_EQ(cache.hit_count(), 1u);
  EXPECT_EQ(cache.miss_count(), 1u);
}

}  // namespace hyrise
