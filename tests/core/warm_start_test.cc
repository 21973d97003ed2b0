/** @file Warm-start (steady-state) controller initialisation tests. */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "cache/hit_map.h"
#include "common/logging.h"
#include "core/controller.h"
#include "tensor/rng.h"

namespace sp::core
{
namespace
{

constexpr std::span<const std::span<const uint64_t>> kNoFutures;

ControllerConfig
warmConfig(uint32_t slots)
{
    ControllerConfig config;
    config.num_slots = slots;
    config.dim = 4;
    config.backing = cache::SlotArray::Backing::Phantom;
    config.warm_start = true;
    return config;
}

TEST(WarmStart, HottestRanksResidentImmediately)
{
    ScratchPipeController controller(warmConfig(100));
    for (uint32_t id = 0; id < 100; ++id) {
        EXPECT_TRUE(controller.isResident(id)) << id;
        EXPECT_EQ(controller.keyOfSlot(id), id);
    }
    EXPECT_FALSE(controller.isResident(100));
}

TEST(WarmStart, FirstBatchOfHotIdsHitsEverything)
{
    ScratchPipeController controller(warmConfig(100));
    const std::vector<uint64_t> hot = {0, 3, 7, 42, 99};
    const auto plan = controller.plan(hot, kNoFutures);
    EXPECT_EQ(plan.hits, hot.size());
    EXPECT_EQ(plan.misses, 0u);
    EXPECT_TRUE(plan.fills.empty());
}

TEST(WarmStart, ColdMissEvictsColdestRank)
{
    // Slot 0 is MRU, slot n-1 is LRU: a miss into a fully warm cache
    // must evict the highest (coldest) rank.
    ScratchPipeController controller(warmConfig(10));
    const std::vector<uint64_t> ids = {1000};
    const auto plan = controller.plan(ids, kNoFutures);
    ASSERT_EQ(plan.evictions.size(), 1u);
    EXPECT_EQ(plan.evictions[0].id, 9u);
    EXPECT_TRUE(controller.isResident(1000));
    EXPECT_FALSE(controller.isResident(9));
}

TEST(WarmStart, FillsEqualEvictionsFromTheStart)
{
    // Steady state means every fill displaces a resident row: there
    // are no free slots to hide cold-start traffic.
    ScratchPipeController controller(warmConfig(64));
    tensor::Rng rng(3);
    for (int b = 0; b < 20; ++b) {
        std::vector<uint64_t> ids(8);
        for (auto &id : ids)
            id = static_cast<uint32_t>(rng.uniformInt(100000));
        controller.plan(ids, kNoFutures);
    }
    const auto &stats = controller.stats();
    EXPECT_EQ(stats.fills, stats.evictions);
    EXPECT_GT(stats.fills, 0u);
}

TEST(WarmStart, BulkLoadLayoutMatchesDescendingInserts)
{
    // The bulk load must leave the exact bucket arrays of the insert
    // loop it replaced, so forEach order and probe-chain lengths (and
    // with them every downstream result) are unchanged.
    for (const uint32_t n : {1u, 17u, 1000u, 1u << 20}) {
        cache::HitMap inserted(n);
        for (uint32_t k = n; k-- > 0;)
            inserted.insert(k, k);
        cache::HitMap loaded(n);
        loaded.loadIdentity(n);

        ASSERT_EQ(loaded.size(), inserted.size()) << n;
        ASSERT_EQ(loaded.capacity(), inserted.capacity()) << n;
        const cache::ProbeTable a = inserted.probeTable();
        const cache::ProbeTable b = loaded.probeTable();
        const size_t buckets = a.mask + 1;
        EXPECT_EQ(std::memcmp(a.keys, b.keys, buckets * sizeof(uint64_t)),
                  0)
            << "key array differs at n = " << n;
        EXPECT_EQ(std::memcmp(a.slots, b.slots, buckets * sizeof(uint32_t)),
                  0)
            << "slot array differs at n = " << n;
    }
}

TEST(WarmStart, BulkLoadNeedsEmptyPresizedMap)
{
    cache::HitMap small(4); // 16 buckets: room for 11 keys
    EXPECT_THROW(small.loadIdentity(12), PanicError);
    small.loadIdentity(11);
    EXPECT_EQ(small.find(10), 10u);
    EXPECT_THROW(small.loadIdentity(1), PanicError);
}

TEST(WarmStart, DenseBackingRejected)
{
    ControllerConfig config = warmConfig(10);
    config.backing = cache::SlotArray::Backing::Dense;
    EXPECT_THROW(ScratchPipeController{config}, FatalError);
}

TEST(WarmStart, ColdControllerStartsEmptyByDefault)
{
    ControllerConfig config = warmConfig(10);
    config.warm_start = false;
    ScratchPipeController controller(config);
    for (uint32_t id = 0; id < 10; ++id)
        EXPECT_FALSE(controller.isResident(id));
}

TEST(WarmStart, WindowProtectionStillApplies)
{
    // Even from a warm cache, in-window rows must never be evicted.
    ScratchPipeController controller(warmConfig(8));
    const std::vector<uint64_t> batch_a = {0, 1, 2, 3};
    controller.plan(batch_a, kNoFutures);
    // A burst of misses must spare batch_a's slots (past window = 3).
    const std::vector<uint64_t> burst = {100, 101, 102, 103};
    const auto plan = controller.plan(burst, kNoFutures);
    for (const auto &evict : plan.evictions) {
        EXPECT_GE(evict.id, 4u)
            << "evicted a row held by the previous batch";
    }
}

} // namespace
} // namespace sp::core
