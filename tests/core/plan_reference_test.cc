/**
 * @file
 * Differential harness for ScratchPipeController::plan().
 *
 * ReferencePlanner re-implements Algorithm 1 the direct way: one live
 * Hit-Map find per ID, every future mark pass on every plan, and the
 * current pre-mark pass exactly when future_window < 2. The controller
 * instead probes each batch once, at the far edge of the window, and
 * carries that probe forward. Both are driven over the same Zipf
 * traces; after every plan the schedules (hits, misses, fills and
 * evictions in order) and the hold eligibility of every slot must be
 * equal, for every window shape, warm and cold starts, every policy
 * and sharded or serial mark passes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cache/hit_map.h"
#include "cache/replacement.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "core/hold_mask.h"
#include "data/zipf.h"
#include "tensor/rng.h"

namespace sp::core
{
namespace
{

/** Algorithm 1 probed the direct way: every mark pass and every
 *  classify lookup queries the Hit-Map live. */
class ReferencePlanner
{
  public:
    explicit ReferencePlanner(const ControllerConfig &config)
        : config_(config), map_(config.num_slots),
          holds_(config.num_slots, config.past_window,
                 config.future_window),
          policy_(cache::makePolicy(config.policy, config.policy_seed)),
          slot_key_(config.num_slots, ScratchPipeController::kNoKey)
    {
        policy_->reset(config.num_slots);
        if (config.warm_start) {
            // Rows 0..num_slots-1 resident, row k in slot k, slot 0
            // most recently used.
            for (uint32_t slot = config.num_slots; slot-- > 0;) {
                map_.insert(slot, slot);
                slot_key_[slot] = slot;
                policy_->touch(slot);
            }
        }
    }

    const HoldMask &holdMask() const { return holds_; }

    PlanResult
    plan(std::span<const uint64_t> current,
         std::span<const std::span<const uint64_t>> futures)
    {
        PlanResult result;
        holds_.advance();
        if (config_.future_window < 2)
            mark(current, 0);
        const uint32_t window = std::min<uint32_t>(
            config_.future_window, static_cast<uint32_t>(futures.size()));
        for (uint32_t d = 1; d <= window; ++d)
            mark(futures[d - 1], d);

        for (const uint64_t id : current) {
            const uint32_t slot = map_.find(id);
            if (slot != cache::HitMap::kNotFound) {
                ++result.hits;
                policy_->touch(slot);
                holds_.markCurrent(slot);
                continue;
            }
            ++result.misses;
            const uint32_t victim = policy_->chooseVictim(
                [this](uint32_t s) { return !holds_.isHeld(s); });
            if (victim == cache::ReplacementPolicy::kNoVictim) {
                ADD_FAILURE() << "reference ran out of victims";
                return result;
            }
            const uint64_t old_key = slot_key_[victim];
            if (old_key != ScratchPipeController::kNoKey) {
                map_.erase(old_key);
                result.evictions.push_back(EvictOp{old_key, victim});
            }
            map_.insert(id, victim);
            slot_key_[victim] = id;
            result.fills.push_back(FillOp{id, victim});
            policy_->touch(victim);
            holds_.markCurrent(victim);
        }
        return result;
    }

  private:
    void
    mark(std::span<const uint64_t> ids, uint32_t distance)
    {
        for (const uint64_t id : ids) {
            const uint32_t slot = map_.find(id);
            if (slot == cache::HitMap::kNotFound)
                continue;
            if (distance == 0)
                holds_.markCurrent(slot);
            else
                holds_.markFuture(slot, distance);
        }
    }

    ControllerConfig config_;
    cache::HitMap map_;
    HoldMask holds_;
    std::unique_ptr<cache::ReplacementPolicy> policy_;
    std::vector<uint64_t> slot_key_;
};

::testing::AssertionResult
samePlan(const PlanResult &got, const PlanResult &want)
{
    if (got.hits != want.hits || got.misses != want.misses)
        return ::testing::AssertionFailure()
               << "hits/misses " << got.hits << "/" << got.misses
               << " vs reference " << want.hits << "/" << want.misses;
    if (got.fills.size() != want.fills.size())
        return ::testing::AssertionFailure()
               << got.fills.size() << " fills vs reference "
               << want.fills.size();
    for (size_t i = 0; i < got.fills.size(); ++i) {
        if (got.fills[i].id != want.fills[i].id ||
            got.fills[i].slot != want.fills[i].slot)
            return ::testing::AssertionFailure()
                   << "fill " << i << " is " << got.fills[i].id << "->"
                   << got.fills[i].slot << ", reference "
                   << want.fills[i].id << "->" << want.fills[i].slot;
    }
    if (got.evictions.size() != want.evictions.size())
        return ::testing::AssertionFailure()
               << got.evictions.size() << " evictions vs reference "
               << want.evictions.size();
    for (size_t i = 0; i < got.evictions.size(); ++i) {
        if (got.evictions[i].id != want.evictions[i].id ||
            got.evictions[i].slot != want.evictions[i].slot)
            return ::testing::AssertionFailure()
                   << "eviction " << i << " is " << got.evictions[i].id
                   << "@" << got.evictions[i].slot << ", reference "
                   << want.evictions[i].id << "@"
                   << want.evictions[i].slot;
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameHolds(const HoldMask &got, const HoldMask &want)
{
    for (uint32_t s = 0; s < got.numSlots(); ++s) {
        if (got.isHeld(s) != want.isHeld(s))
            return ::testing::AssertionFailure()
                   << "slot " << s << " held " << got.isHeld(s)
                   << ", reference " << want.isHeld(s);
    }
    return ::testing::AssertionSuccess();
}

/** A planned trace: the batches plus the window each plan is given. */
struct Trace
{
    std::vector<std::vector<uint64_t>> batches;
    /** Futures supplied to plan b (<= future_window; fewer near the
     *  end, and at random plans of a ragged trace). */
    std::vector<size_t> window;
};

constexpr size_t kIdsPerBatch = 256; // >= 2 x 64, so shards=4 splits
constexpr uint64_t kRows = 8192;

/**
 * Zipf batches of kIdsPerBatch IDs over kRows rows. A ragged trace
 * also varies the batch size, now and then repeats the content of a
 * batch 1-4 positions back, and truncates the window of runs of 1-4
 * plans (a look-ahead that is not available yet). Together these make
 * a far-edge ID copy go stale while equal content comes round again.
 */
Trace
makeTrace(uint64_t seed, uint32_t future_window, bool ragged)
{
    tensor::Rng rng(seed);
    data::ZipfSampler zipf(kRows, 0.9);
    const size_t batches = ragged ? 64 : 32;
    Trace trace;
    for (size_t b = 0; b < batches; ++b) {
        if (ragged && b > 0 && rng.uniformInt(3) == 0) {
            const size_t back = 1 + rng.uniformInt(std::min<size_t>(b, 4));
            trace.batches.push_back(trace.batches[b - back]);
            continue;
        }
        const size_t n = ragged ? kIdsPerBatch / 2 +
                                      rng.uniformInt(kIdsPerBatch / 2 + 1)
                                : kIdsPerBatch;
        std::vector<uint64_t> ids(n);
        for (auto &id : ids)
            id = zipf.sample(rng);
        trace.batches.push_back(std::move(ids));
    }
    size_t short_run = 0;
    for (size_t b = 0; b < batches; ++b) {
        size_t window = std::min<size_t>(future_window, batches - 1 - b);
        if (ragged && short_run == 0 && rng.uniformInt(4) == 0)
            short_run = 1 + rng.uniformInt(4);
        if (short_run > 0) {
            --short_run;
            window = window == 0 ? 0 : rng.uniformInt(window);
        }
        trace.window.push_back(window);
    }
    return trace;
}

/** Drive controller and reference over every grid point; stop at the
 *  first divergence of each configuration. */
void
runGrid(bool ragged)
{
    // Wide enough that shards really cross threads on any host.
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const cache::PolicyKind policies[] = {
        cache::PolicyKind::Lru, cache::PolicyKind::Lfu,
        cache::PolicyKind::Fifo, cache::PolicyKind::Random};
    uint64_t seed = ragged ? 1000 : 1;
    for (uint32_t future = 0; future <= 3; ++future) {
        for (uint32_t past = 0; past <= 3; ++past) {
            for (const bool warm : {false, true}) {
                for (const auto policy : policies) {
                    for (const uint32_t shards : {1u, 4u}) {
                        ControllerConfig config;
                        config.num_slots =
                            ScratchPipeController::worstCaseSlots(
                                past, future, kIdsPerBatch);
                        config.dim = 4;
                        config.past_window = past;
                        config.future_window = future;
                        config.policy = policy;
                        config.policy_seed = seed;
                        config.plan_shards = shards;
                        config.backing = cache::SlotArray::Backing::Phantom;
                        config.warm_start = warm;
                        // Presized and grow-on-first-plan buffers both.
                        config.ids_per_batch = warm ? kIdsPerBatch : 0;

                        std::ostringstream where;
                        where << "future=" << future << " past=" << past
                              << " warm=" << warm << " policy="
                              << cache::policyName(policy)
                              << " shards=" << shards;
                        SCOPED_TRACE(where.str());

                        const Trace trace = makeTrace(seed++, future, ragged);
                        ScratchPipeController controller(config);
                        ReferencePlanner reference(config);
                        for (size_t b = 0; b < trace.batches.size(); ++b) {
                            std::vector<std::span<const uint64_t>> futures;
                            for (size_t d = 1; d <= trace.window[b]; ++d)
                                futures.emplace_back(trace.batches[b + d]);
                            const auto want =
                                reference.plan(trace.batches[b], futures);
                            const auto &got =
                                controller.plan(trace.batches[b], futures);
                            const auto plan_ok = samePlan(got, want);
                            const auto holds_ok =
                                sameHolds(controller.holdMask(),
                                          reference.holdMask());
                            if (!plan_ok || !holds_ok) {
                                ADD_FAILURE() << "after plan " << b << ": "
                                              << (plan_ok ? holds_ok.message()
                                                          : plan_ok.message());
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(PlanReference, ZipfTracesMatchReferenceEveryPlan)
{
    runGrid(/*ragged=*/false);
}

TEST(PlanReference, RaggedWindowsMatchReferenceEveryPlan)
{
    runGrid(/*ragged=*/true);
}

} // namespace
} // namespace sp::core
