//===- ThreadPool.h - Fixed-size worker pool -------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size worker pool (C++20, standard library only) used by
/// the TRACER driver to parallelize the per-round forward analyses and the
/// per-counterexample backward meta-analysis runs.
///
/// Design constraints, in order:
///
///  * Determinism support: parallelFor() hands every task its index and the
///    index of the worker executing it, so callers can write results into
///    pre-sized slots and keep per-worker scratch (e.g. one
///    BackwardMetaAnalysis instance per worker) without any shared mutable
///    state. The pool itself imposes no ordering; merging in a fixed order
///    is the caller's job.
///  * The calling thread participates as worker 0, so a pool constructed
///    with one worker spawns no threads at all and parallelFor() degenerates
///    to an in-order sequential loop - the NumThreads = 1 configuration is
///    bit-for-bit the sequential driver.
///  * Exceptions thrown by tasks are captured and the first one is rethrown
///    from parallelFor() once the batch has drained.
///    Exceptions are additionally routed to an optional InvariantSink so the
///    driver's audit layer sees them as structured records, and anything
///    that escapes a worker outside a batch (which would otherwise hit the
///    std::thread boundary and terminate the process) is captured and
///    rethrown at the next parallelFor() barrier.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_THREADPOOL_H
#define OPTABS_SUPPORT_THREADPOOL_H

#include "support/Invariants.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace optabs {
namespace support {

class ThreadPool {
public:
  /// Creates a pool of \p NumThreads workers (clamped to >= 1). Worker 0 is
  /// the thread calling parallelFor(); only NumThreads - 1 threads are
  /// spawned. Task exceptions are reported to \p Sink (when non-null) as
  /// structured invariant records in addition to being rethrown.
  explicit ThreadPool(unsigned NumThreads, InvariantSink *Sink = nullptr)
      : NumWorkers(NumThreads < 1 ? 1 : NumThreads), Sink(Sink) {
    for (unsigned W = 1; W < NumWorkers; ++W)
      Threads.emplace_back([this, W] { workerLoop(W); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ShuttingDown = true;
    }
    WorkAvailable.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  unsigned numWorkers() const { return NumWorkers; }

  /// A convenient default for "use all cores": hardware concurrency,
  /// clamped to >= 1 for platforms that report 0.
  static unsigned hardwareWorkers() {
    unsigned N = std::thread::hardware_concurrency();
    return N < 1 ? 1 : N;
  }

  /// Runs Fn(TaskIndex, WorkerIndex) for every TaskIndex in [0, NumTasks)
  /// and blocks until all tasks finished. WorkerIndex < numWorkers(). With
  /// one worker, tasks run inline on the caller in ascending index order.
  /// The first task exception (if any) is rethrown here after the batch
  /// drains.
  ///
  /// Scheduling is dynamic via a shared atomic index: the queue receives
  /// one "runner" closure per helper worker (not one per task), and every
  /// participant claims indices with fetch_add until they run out. Per-task
  /// overhead is therefore one atomic increment, which keeps fine-grained
  /// batches (thousands of sub-microsecond tasks) cheap.
  void parallelFor(size_t NumTasks,
                   const std::function<void(size_t, unsigned)> &Fn) {
    if (NumTasks == 0)
      return;
    if (NumWorkers == 1 || NumTasks == 1) {
      for (size_t I = 0; I < NumTasks; ++I)
        Fn(I, 0);
      return;
    }
    auto State = std::make_shared<Batch>();
    State->Fn = &Fn;
    State->NumTasks = NumTasks;
    State->Remaining = NumTasks;
    State->Sink = Sink;
    size_t Helpers =
        std::min<size_t>(NumWorkers - 1, NumTasks - 1);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      for (size_t H = 0; H < Helpers; ++H)
        Queue.push_back([State](unsigned Worker) { runBatch(*State, Worker); });
    }
    WorkAvailable.notify_all();

    // Participate as worker 0, then wait for stragglers on other workers.
    // A helper dequeued after the batch drained claims an out-of-range
    // index and exits without touching Fn (the shared_ptr keeps the batch
    // state alive for it).
    runBatch(*State, 0);
    {
      std::unique_lock<std::mutex> Lock(State->Mutex);
      State->Done.wait(Lock, [&] { return State->Remaining.load() == 0; });
    }
    if (State->FirstException)
      std::rethrow_exception(State->FirstException);
    // A stray exception captured in workerLoop() (outside any batch) is
    // rethrown here, at the first join/wait barrier after it happened.
    std::exception_ptr Stray;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stray = std::exchange(StrayException, nullptr);
    }
    if (Stray)
      std::rethrow_exception(Stray);
  }

private:
  using Task = std::function<void(unsigned)>;

  struct Batch {
    const std::function<void(size_t, unsigned)> *Fn = nullptr;
    size_t NumTasks = 0;
    std::atomic<size_t> NextIndex{0};
    std::atomic<size_t> Remaining{0};
    std::mutex Mutex;
    std::condition_variable Done;
    std::exception_ptr FirstException;
    InvariantSink *Sink = nullptr;
  };

  /// Renders an exception_ptr as a one-line message for invariant records.
  static std::string describeException(const std::exception_ptr &E) {
    try {
      std::rethrow_exception(E);
    } catch (const std::exception &Ex) {
      return Ex.what();
    } catch (...) {
      return "unknown exception";
    }
  }

  /// Claims and runs tasks of \p B until the index space is exhausted.
  static void runBatch(Batch &B, unsigned Worker) {
    for (;;) {
      size_t I = B.NextIndex.fetch_add(1, std::memory_order_relaxed);
      if (I >= B.NumTasks)
        return;
      try {
        (*B.Fn)(I, Worker);
      } catch (...) {
        std::exception_ptr E = std::current_exception();
        // Sink only: the exception is also rethrown at the barrier, so the
        // no-sink stderr fallback would double-report.
        if (B.Sink)
          B.Sink->report("task-exception", "ThreadPool::runBatch",
                         describeException(E));
        std::lock_guard<std::mutex> Lock(B.Mutex);
        if (!B.FirstException)
          B.FirstException = E;
      }
      if (B.Remaining.fetch_sub(1) == 1) {
        // Take the batch mutex before notifying so the waiter cannot miss
        // the wakeup between its predicate check and its wait.
        std::lock_guard<std::mutex> Lock(B.Mutex);
        B.Done.notify_all();
      }
    }
  }

  void workerLoop(unsigned Worker) {
    // Thread-local store only; lets the span profiler label this thread's
    // trace track "worker-N" even when metrics are enabled later.
    setMetricsWorkerLabel(Worker);
    while (true) {
      Task T;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WorkAvailable.wait(Lock,
                           [&] { return ShuttingDown || !Queue.empty(); });
        if (ShuttingDown && Queue.empty())
          return;
        T = std::move(Queue.front());
        Queue.pop_front();
      }
      try {
        T(Worker);
      } catch (...) {
        // A task that escaped the per-task capture in runBatch (e.g. a
        // throw from invoking the closure itself). Without this it would
        // cross the std::thread boundary and std::terminate the process.
        // Record it and rethrow the first one at the next parallelFor
        // barrier.
        std::exception_ptr E = std::current_exception();
        reportInvariant(Sink, "worker-exception", "ThreadPool::workerLoop",
                        describeException(E));
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!StrayException)
          StrayException = E;
      }
    }
  }

  const unsigned NumWorkers;
  InvariantSink *Sink = nullptr;
  std::vector<std::thread> Threads;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::deque<Task> Queue;
  std::exception_ptr StrayException; ///< guarded by Mutex
  bool ShuttingDown = false;
};

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_THREADPOOL_H
