/**
 * @file
 * Per-table [Plan] fan-out for the ScratchPipe timing model.
 *
 * ScratchPipeSystem runs one controller per table (at any GPU count);
 * the per-table constructions and plan calls are independent, so they
 * fan out across the worker pool. This helper owns the reusable scratch
 * (future-window span lists, per-table outcomes) and the fan-out
 * itself. Table t only writes slot t, keeping results bit-identical
 * to a serial table loop.
 *
 * runAsync() is the engine's two-deep software pipeline: it launches
 * batch i+1's fan-out and returns immediately, so the caller reduces
 * batch i's outcomes while i+1's plans are already on the pool.
 * Outcome buffers ping-pong between two slots -- the batch being
 * accounted stays readable while the next one writes -- and the
 * controller-per-table ordering constraint is preserved by the only
 * legal call sequence: wait() batch i before launching batch i+1
 * (controllers are stateful; plans of one table must stay in batch
 * order).
 */

#ifndef SP_SYS_PLAN_FANOUT_H
#define SP_SYS_PLAN_FANOUT_H

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "data/dataset.h"

namespace sp::sys
{

/** One table's plan outcome for a single batch. */
struct TablePlanOutcome
{
    uint64_t fills = 0;
    uint64_t evicts = 0;
    uint64_t hits = 0;
    uint64_t ids = 0;
};

/** Pool-parallel per-table planning with reusable scratch. */
class PlanFanout
{
  public:
    PlanFanout(size_t num_tables, uint32_t future_window)
        : future_window_(future_window), future_scratch_(num_tables)
    {
        for (auto &buffer : outcomes_)
            buffer.resize(num_tables);
        for (auto &scratch : future_scratch_)
            scratch.reserve(future_window);
    }

    /**
     * Handle to one launched batch. wait() is the batch's plan
     * barrier: it blocks until every table's plan has retired (the
     * caller helps drain, so completion never depends on pool
     * capacity) and returns the batch's outcomes. The returned
     * reference stays valid until the next-but-one launch reuses the
     * buffer.
     */
    class Pending
    {
      public:
        Pending() = default;

        const std::vector<TablePlanOutcome> &
        wait()
        {
            panicIf(outcomes_ == nullptr,
                    "wait() on a Pending that was never launched");
            done_.wait();
            return *outcomes_;
        }

      private:
        friend class PlanFanout;
        common::ThreadPool::Completion done_;
        const std::vector<TablePlanOutcome> *outcomes_ = nullptr;
    };

    /**
     * Build one controller per table from `config`, table t seeded
     * 0x5eed + t. Construction fans out over the pool like the plans
     * do -- a warm start fills each table's Hit-Map independently --
     * and table t only writes entry t, so the result does not depend
     * on scheduling.
     */
    static std::vector<core::ScratchPipeController>
    makeControllers(const core::ControllerConfig &config, size_t num_tables)
    {
        std::vector<std::optional<core::ScratchPipeController>> built(
            num_tables);
        // parallelForAsync + wait rather than parallelFor: it also
        // fans out on a one-worker pool (--jobs 1).
        common::ThreadPool::global()
            .parallelForAsync(num_tables,
                              [&config, &built](size_t t) {
                                  core::ControllerConfig table = config;
                                  table.policy_seed = 0x5eed + t;
                                  built[t].emplace(table);
                              })
            .wait();
        std::vector<core::ScratchPipeController> controllers;
        controllers.reserve(num_tables);
        for (auto &controller : built)
            controllers.push_back(std::move(*controller));
        return controllers;
    }

    /**
     * Launch batch `index`'s per-table plans on the pool and return
     * without blocking. The previous launch must have been wait()ed
     * first -- table t's plan for batch i+1 may only start once its
     * plan for batch i retired.
     */
    Pending
    runAsync(std::vector<core::ScratchPipeController> &controllers,
             const data::TraceDataset &dataset, uint64_t index)
    {
        std::vector<TablePlanOutcome> &out = outcomes_[next_buffer_];
        next_buffer_ ^= 1;
        Pending pending;
        pending.outcomes_ = &out;
        pending.done_ = common::ThreadPool::global().parallelForAsync(
            controllers.size(),
            [this, &controllers, &dataset, &out, index](size_t t) {
                const auto &mini = dataset.batch(index);
                // Future window from the dataset's look-ahead
                // capability.
                auto &futures = future_scratch_[t];
                futures.clear();
                for (uint32_t d = 1; d <= future_window_; ++d) {
                    const auto *next = dataset.lookAhead(index, d);
                    if (next == nullptr)
                        break;
                    futures.emplace_back(next->ids(t));
                }
                const auto &plan =
                    controllers[t].plan(mini.ids(t), futures);
                out[t] = {plan.fills.size(), plan.evictions.size(),
                          plan.hits, plan.hits + plan.misses};
            });
        return pending;
    }

    /** Blocking form: plan batch `index` on every controller and
     *  return its outcomes. */
    const std::vector<TablePlanOutcome> &
    run(std::vector<core::ScratchPipeController> &controllers,
        const data::TraceDataset &dataset, uint64_t index)
    {
        return runAsync(controllers, dataset, index).wait();
    }

    /**
     * Drive batches 0..num_batches-1 through the fan-out, calling
     * consume(i, outcomes) for each batch in order. With `overlap`
     * the two-deep pipeline runs: batch i+1 launches right after
     * batch i's barrier, before consume(i) -- so consume must not
     * touch the controllers. Without it, planning and consuming
     * strictly alternate. consume sees identical outcomes in
     * identical order either way; this member is the single home of
     * the launch-after-wait ordering every caller depends on.
     */
    template <typename ConsumeFn>
    void
    forEachBatch(std::vector<core::ScratchPipeController> &controllers,
                 const data::TraceDataset &dataset, uint64_t num_batches,
                 bool overlap, ConsumeFn &&consume)
    {
        if (overlap && num_batches > 0) {
            Pending pending = runAsync(controllers, dataset, 0);
            for (uint64_t i = 0; i < num_batches; ++i) {
                const auto &outcomes = pending.wait();
                if (i + 1 < num_batches)
                    pending = runAsync(controllers, dataset, i + 1);
                consume(i, outcomes);
            }
        } else {
            for (uint64_t i = 0; i < num_batches; ++i)
                consume(i, run(controllers, dataset, i));
        }
    }

  private:
    uint32_t future_window_;
    std::array<std::vector<TablePlanOutcome>, 2> outcomes_;
    size_t next_buffer_ = 0;
    std::vector<std::vector<std::span<const uint64_t>>> future_scratch_;
};

} // namespace sp::sys

#endif // SP_SYS_PLAN_FANOUT_H
