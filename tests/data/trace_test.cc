/** @file TraceGenerator determinism and geometry tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "data/dataset.h"
#include "data/trace.h"

namespace sp::data
{
namespace
{

TraceConfig
smallConfig()
{
    TraceConfig config;
    config.num_tables = 3;
    config.rows_per_table = 1000;
    config.lookups_per_table = 4;
    config.batch_size = 16;
    config.locality = Locality::Medium;
    config.seed = 11;
    config.dense_features = 5;
    return config;
}

/** Batch `index` as the generator writes it: every table's IDs. */
std::vector<uint64_t>
batchIds(const TraceGenerator &gen, uint64_t index)
{
    std::vector<uint64_t> ids(gen.config().idsPerBatch());
    gen.makeBatch(index, ids);
    return ids;
}

TEST(Trace, BatchGeometry)
{
    const TraceDataset dataset(smallConfig(), 1);
    const MiniBatch &batch = dataset.batch(0);
    EXPECT_EQ(batch.numTables(), 3u);
    EXPECT_EQ(batch.batch_size, 16u);
    EXPECT_EQ(batch.lookups_per_table, 4u);
    for (size_t t = 0; t < batch.numTables(); ++t)
        EXPECT_EQ(batch.ids(t).size(), 64u); // 16 * 4
}

TEST(Trace, IdsWithinTableRange)
{
    TraceGenerator gen(smallConfig());
    for (uint64_t b = 0; b < 10; ++b)
        for (const uint64_t id : batchIds(gen, b))
            EXPECT_LT(id, 1000u);
}

TEST(Trace, DeterministicPerIndex)
{
    TraceGenerator a(smallConfig()), b(smallConfig());
    // Generate out of order: batch 5 must not depend on history.
    const std::vector<uint64_t> b5_first = batchIds(a, 5);
    batchIds(a, 0);
    EXPECT_EQ(b5_first, batchIds(a, 5));
    EXPECT_EQ(b5_first, batchIds(b, 5));
}

TEST(Trace, DifferentBatchesDiffer)
{
    TraceGenerator gen(smallConfig());
    EXPECT_NE(batchIds(gen, 0), batchIds(gen, 1));
}

TEST(Trace, DifferentSeedsDiffer)
{
    TraceConfig other = smallConfig();
    other.seed = 12;
    TraceGenerator a(smallConfig()), b(other);
    EXPECT_NE(batchIds(a, 0), batchIds(b, 0));
}

TEST(Trace, TablesHaveIndependentStreams)
{
    const TraceDataset dataset(smallConfig(), 1);
    const MiniBatch &batch = dataset.batch(0);
    EXPECT_FALSE(std::ranges::equal(batch.ids(0), batch.ids(1)));
}

TEST(Trace, MakeBatchRejectsWrongSpanSize)
{
    TraceGenerator gen(smallConfig());
    std::vector<uint64_t> short_buffer(gen.config().idsPerBatch() - 1);
    EXPECT_THROW(gen.makeBatch(0, short_buffer), PanicError);
}

TEST(Trace, PerTableExponentOverride)
{
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.0, 0.5, 1.2};
    TraceGenerator gen(config);
    EXPECT_DOUBLE_EQ(gen.tableExponent(0), 0.0);
    EXPECT_DOUBLE_EQ(gen.tableExponent(1), 0.5);
    EXPECT_DOUBLE_EQ(gen.tableExponent(2), 1.2);
}

TEST(Trace, PerTableExponentSizeMismatchFatal)
{
    TraceConfig config = smallConfig();
    config.per_table_exponents = {0.0, 0.5};
    EXPECT_THROW(TraceGenerator{config}, FatalError);
}

TEST(Trace, DenseFeatureGeometryAndDeterminism)
{
    TraceGenerator gen(smallConfig());
    const auto dense = gen.makeDenseFeatures(3);
    EXPECT_EQ(dense.rows(), 16u);
    EXPECT_EQ(dense.cols(), 5u);
    EXPECT_TRUE(
        tensor::Matrix::identical(dense, gen.makeDenseFeatures(3)));
    EXPECT_FALSE(
        tensor::Matrix::identical(dense, gen.makeDenseFeatures(4)));
}

TEST(Trace, LabelsAreBinaryAndDeterministic)
{
    TraceGenerator gen(smallConfig());
    const auto labels = gen.makeLabels(2);
    EXPECT_EQ(labels.rows(), 16u);
    EXPECT_EQ(labels.cols(), 1u);
    for (size_t i = 0; i < labels.rows(); ++i)
        EXPECT_TRUE(labels(i, 0) == 0.0f || labels(i, 0) == 1.0f);
    EXPECT_TRUE(tensor::Matrix::identical(labels, gen.makeLabels(2)));
}

TEST(Trace, LabelsHaveBothClasses)
{
    TraceConfig config = smallConfig();
    config.batch_size = 256;
    TraceGenerator gen(config);
    const auto labels = gen.makeLabels(0);
    int positives = 0;
    for (size_t i = 0; i < labels.rows(); ++i)
        positives += labels(i, 0) > 0.5f ? 1 : 0;
    EXPECT_GT(positives, 20);
    EXPECT_LT(positives, 236);
}

TEST(Trace, ConfigHelpers)
{
    const TraceConfig config = smallConfig();
    EXPECT_EQ(config.idsPerTable(), 64u);
    EXPECT_EQ(config.idsPerBatch(), 192u);
}

/** FNV-1a over every ID of the first `batches` batches, table-major. */
uint64_t
idDigest(const TraceConfig &config, uint64_t batches)
{
    const TraceDataset dataset(config, batches);
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t b = 0; b < batches; ++b)
        for (size_t t = 0; t < config.num_tables; ++t)
            for (const uint64_t id : dataset.batch(b).ids(t))
                h = (h ^ id) * 0x100000001b3ull;
    return h;
}

TEST(Trace, GeneratedIdsMatchPinnedDigest)
{
    // The trace cache serves an entry whenever fingerprint() matches,
    // so the generator's bytes for a given config are a contract: a
    // change here must come with a kTraceFormatVersion bump.
    EXPECT_EQ(idDigest(smallConfig(), 8), 0x455831dd48ab81cbull);

    TraceConfig mixed = smallConfig();
    mixed.per_table_exponents = {0.0, 0.7, 1.3};
    EXPECT_EQ(idDigest(mixed, 4), 0xfe93f81b994b85f9ull);

    TraceConfig shaped = smallConfig();
    shaped.workload.drift_amp = 0.3;
    shaped.workload.drift_period = 4;
    shaped.workload.churn_k = 16;
    shaped.workload.churn_period = 3;
    shaped.workload.burst_frac = 0.4;
    shaped.workload.burst_period = 6;
    shaped.workload.burst_len = 2;
    shaped.workload.burst_ranks = 50;
    shaped.workload.phase = 2;
    EXPECT_EQ(idDigest(shaped, 12), 0xc0f2a9ac664009f3ull);
}

TEST(Trace, InvalidConfigsFatal)
{
    TraceConfig config = smallConfig();
    config.num_tables = 0;
    EXPECT_THROW(TraceGenerator{config}, FatalError);

    config = smallConfig();
    config.batch_size = 0;
    EXPECT_THROW(TraceGenerator{config}, FatalError);

    config = smallConfig();
    config.lookups_per_table = 0;
    EXPECT_THROW(TraceGenerator{config}, FatalError);
}

} // namespace
} // namespace sp::data
