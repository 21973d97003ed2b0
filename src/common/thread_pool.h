/**
 * @file
 * Shared work-pool execution layer.
 *
 * One bounded pool serves every parallel site in the simulator: trace
 * generation, per-batch statistics, per-table [Plan] fan-out, sharded
 * mark-pass probes, and whole-system sweeps in ExperimentRunner. Three
 * primitives:
 *
 *   submit(fn)        enqueue an arbitrary task, get a std::future;
 *   parallelFor(n,fn) run fn(0..n-1) cooperatively: the calling
 *                     thread participates, so nesting a parallelFor
 *                     inside a pool task can never deadlock -- if all
 *                     workers are busy the caller simply executes
 *                     every index itself;
 *   parallelForAsync(n,fn)
 *                     the same index space, but the call returns a
 *                     Completion token immediately so the caller can
 *                     overlap its own work with the fan-out; unlike
 *                     parallelFor it enqueues workers on a one-worker
 *                     pool too. wait() is the phase barrier: the
 *                     caller drains whatever indices the workers have
 *                     not picked up, so completion never depends on
 *                     pool capacity.
 *
 * Every parallel site in this codebase writes result i from call
 * fn(i) only, so outputs are bit-identical to a serial loop no matter
 * how indices interleave across threads.
 *
 * ThreadPool::global() is the process-wide pool. Its width defaults
 * to hardware_concurrency (overridable via the SP_JOBS environment
 * variable) and can be set explicitly with setGlobalThreads() --
 * call it at startup, before any parallel work, as spsim --jobs does.
 */

#ifndef SP_COMMON_THREAD_POOL_H
#define SP_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault.h"

namespace sp::common
{

namespace detail
{
struct ForState;
} // namespace detail

/** Fixed-width thread pool with a cooperative parallel-for. */
class ThreadPool
{
  public:
    /** @param threads worker count; clamped to at least 1. */
    explicit ThreadPool(size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /**
     * Enqueue `fn` on a worker; the future carries its result. An
     * exception thrown by `fn` is captured by the packaged task and
     * rethrown from future.get() -- it never unwinds a worker. The
     * fault site runs inside the task for the same reason: an
     * injected "thread_pool.task" fault surfaces on the future.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            [body = std::forward<F>(fn)]() mutable -> R {
                SP_FAULT_POINT("thread_pool.task");
                return body();
            });
        std::future<R> future = task->get_future();
        enqueue([task] { (*task)(); });
        return future;
    }

    /**
     * Run fn(0), ..., fn(n-1), distributing indices over the workers
     * *and* the calling thread. Returns once every index has run.
     * The first exception is rethrown on the caller after the
     * remaining indices are drained (un-run indices are skipped once
     * an exception is recorded). A pool of width 1 runs serially on
     * the caller.
     *
     * `max_helpers` caps the worker tasks enqueued alongside the
     * caller, bounding concurrency to max_helpers + 1 lanes without
     * spinning up a second pool (ExperimentRunner's --jobs bound).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                     size_t max_helpers = SIZE_MAX);

    /**
     * Completion token of one parallelForAsync call: a one-shot phase
     * barrier. wait() drains any indices the workers have not started
     * (the caller participates, exactly as in parallelFor), blocks
     * until every index has retired, and rethrows the first exception
     * the body raised. Dropping a pending token waits too (errors
     * swallowed) so in-flight tasks can never outlive the state they
     * capture. Default-constructed and already-waited tokens are
     * inert.
     */
    class Completion
    {
      public:
        Completion() noexcept = default;
        ~Completion();
        Completion(Completion &&other) noexcept = default;
        Completion &operator=(Completion &&other) noexcept;
        Completion(const Completion &) = delete;
        Completion &operator=(const Completion &) = delete;

        /** Phase barrier: help finish, then block; rethrows the first
         *  body exception. Idempotent. */
        void wait();

        /** True until wait() (or the destructor) has retired it. */
        bool pending() const { return state_ != nullptr; }

      private:
        friend class ThreadPool;
        std::shared_ptr<detail::ForState> state_;
    };

    /**
     * Start fn(0..n-1) on up to min(size(), n, max_helpers) workers
     * and return immediately; the caller joins the fan-out only when
     * it wait()s the returned token. Unlike parallelFor it enqueues
     * worker tasks on a pool of width 1 too, which is why
     * PlanFanout's controller builds and per-batch plans use it (and
     * wait at once). Results are written slot-i-from-call-i by every
     * site, so scheduling never changes outputs.
     */
    Completion parallelForAsync(size_t n, std::function<void(size_t)> fn,
                                size_t max_helpers = SIZE_MAX);

    /** The process-wide pool (created on first use). */
    static ThreadPool &global();

    /**
     * Width of global() before it is created: SP_JOBS when set to a
     * positive integer, else std::thread::hardware_concurrency().
     * SP_JOBS must be decimal digits <= kMaxJobs, like --jobs;
     * anything else is fatal().
     */
    static size_t defaultThreads();

    /**
     * Resize the process-wide pool. Startup-time only: the previous
     * pool (if any) is drained and destroyed, so no other thread may
     * be using global() concurrently.
     */
    static void setGlobalThreads(size_t threads);

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/** Shorthand: global().parallelFor(n, fn). */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

} // namespace sp::common

#endif // SP_COMMON_THREAD_POOL_H
