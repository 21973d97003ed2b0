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
 */

#ifndef SP_SYS_PLAN_FANOUT_H
#define SP_SYS_PLAN_FANOUT_H

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

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
        : future_window_(future_window), outcomes_(num_tables),
          future_scratch_(num_tables)
    {
        for (auto &scratch : future_scratch_)
            scratch.reserve(future_window);
    }

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
     * Plan batch `index` on every controller and return its
     * outcomes. The call blocks until every table's plan has retired;
     * the returned reference stays valid until the next run().
     */
    const std::vector<TablePlanOutcome> &
    run(std::vector<core::ScratchPipeController> &controllers,
        const data::TraceDataset &dataset, uint64_t index)
    {
        // parallelForAsync + wait, as in makeControllers: it also fans
        // out on a one-worker pool (--jobs 1).
        common::ThreadPool::global()
            .parallelForAsync(
                controllers.size(),
                [this, &controllers, &dataset, index](size_t t) {
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
                    outcomes_[t] = {plan.fills.size(),
                                    plan.evictions.size(), plan.hits,
                                    plan.hits + plan.misses};
                })
            .wait();
        return outcomes_;
    }

  private:
    uint32_t future_window_;
    std::vector<TablePlanOutcome> outcomes_;
    std::vector<std::vector<std::span<const uint64_t>>> future_scratch_;
};

} // namespace sp::sys

#endif // SP_SYS_PLAN_FANOUT_H
