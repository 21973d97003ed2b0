/** @file Tests for the Section VI-G multi-GPU ScratchPipe extension. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "metrics/cost.h"
#include "sys/multigpu.h"
#include "sys/scratchpipe_sys.h"

namespace sp::sys
{
namespace
{

struct PaperWorkload
{
    explicit PaperWorkload(data::Locality locality,
                           uint64_t iterations = 5)
        : model([&] {
              ModelConfig m = ModelConfig::paperDefault();
              m.trace.locality = locality;
              m.trace.seed = 60;
              return m;
          }()),
          dataset(model.trace, iterations + 2),
          stats(dataset, iterations), iters(iterations)
    {
    }
    ModelConfig model;
    data::TraceDataset dataset;
    BatchStats stats;
    uint64_t iters;
};

const sim::HardwareConfig kHw = sim::HardwareConfig::paperTestbed();
const int kGpus = kHw.multi_gpu_count;

ScratchPipeOptions
defaultOptions()
{
    ScratchPipeOptions options;
    options.cache_fraction = 0.10;
    return options;
}

TEST(ScratchPipeMultiGpu, FasterThanSingleGpuScratchPipe)
{
    // More HBM, more PCIe lanes, data-parallel MLPs: the extension
    // must be faster per iteration...
    PaperWorkload w(data::Locality::Medium);
    ScratchPipeSystem single(w.model, kHw, defaultOptions());
    ScratchPipeSystem multi(w.model, kHw, defaultOptions(), kGpus);
    const double t1 =
        single.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t8 =
        multi.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    EXPECT_LT(t8, t1);
}

TEST(ScratchPipeMultiGpu, FarFromLinearScaling)
{
    // ...but nowhere near 8x: shared CPU DRAM and framework overheads
    // bind it (the paper's Section VI-G argument).
    PaperWorkload w(data::Locality::Random);
    ScratchPipeSystem single(w.model, kHw, defaultOptions());
    ScratchPipeSystem multi(w.model, kHw, defaultOptions(), kGpus);
    const double t1 =
        single.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    const double t8 =
        multi.simulate(w.dataset, w.stats, w.iters).seconds_per_iteration;
    EXPECT_GT(t8 * 4.0, t1); // speedup < 4x despite 8x the GPUs
}

TEST(ScratchPipeMultiGpu, NotCostEffective)
{
    // The quantified Section VI-G claim: $/iteration is worse than
    // single-GPU ScratchPipe at every locality.
    for (auto locality : {data::Locality::Random, data::Locality::High}) {
        PaperWorkload w(locality);
        ScratchPipeSystem single(w.model, kHw, defaultOptions());
        ScratchPipeSystem multi(w.model, kHw, defaultOptions(), kGpus);
        const double t1 = single.simulate(w.dataset, w.stats, w.iters)
                              .seconds_per_iteration;
        const double t8 = multi.simulate(w.dataset, w.stats, w.iters)
                              .seconds_per_iteration;
        const double c1 = metrics::trainingCost(
            metrics::AwsInstance::p3_2xlarge(), t1, 1'000'000);
        const double c8 = metrics::trainingCost(
            metrics::AwsInstance::p3_16xlarge(), t8, 1'000'000);
        EXPECT_GT(c8, c1) << data::localityName(locality);
    }
}

TEST(ScratchPipeMultiGpu, SixStageBreakdownReported)
{
    PaperWorkload w(data::Locality::Medium);
    ScratchPipeSystem multi(w.model, kHw, defaultOptions(), kGpus);
    const auto result = multi.simulate(w.dataset, w.stats, w.iters);
    EXPECT_EQ(result.breakdown.stages().size(), 6u);
    EXPECT_EQ(result.system_name, "ScratchPipe multi-GPU");
    EXPECT_GT(result.hit_rate, 0.0);
    EXPECT_FALSE(result.bottleneck.empty());
}

TEST(ScratchPipeMultiGpu, HitRateMatchesSingleGpu)
{
    // The cache managers are identical per table; only resource
    // charging differs, so hit rates must agree.
    PaperWorkload w(data::Locality::High);
    ScratchPipeSystem single(w.model, kHw, defaultOptions());
    ScratchPipeSystem multi(w.model, kHw, defaultOptions(), kGpus);
    const auto r1 = single.simulate(w.dataset, w.stats, w.iters);
    const auto r8 = multi.simulate(w.dataset, w.stats, w.iters);
    EXPECT_NEAR(r1.hit_rate, r8.hit_rate, 1e-12);
}

TEST(ScratchPipeMultiGpu, AdaGradStateMigratesAtEveryGpuCount)
{
    // AdaGrad accumulators travel with their rows, so fills and
    // write-backs move more PCIe bytes than under SGD on one GPU and
    // on many.
    PaperWorkload w(data::Locality::Medium);
    ModelConfig adagrad = w.model;
    adagrad.optimizer = Optimizer::AdaGrad;
    for (const int gpus : {1, kGpus}) {
        const auto exchange = [&](const ModelConfig &model) {
            return ScratchPipeSystem(model, kHw, defaultOptions(), gpus)
                .simulate(w.dataset, w.stats, w.iters)
                .breakdown.get("Exchange");
        };
        EXPECT_GT(exchange(adagrad), exchange(w.model)) << gpus << " GPUs";
    }
}

TEST(ScratchPipeMultiGpu, ResultJsonPinned)
{
    // Exact bytes of the 8-GPU run at both bottlenecks: the shared
    // CPU DRAM (Medium) and [Train] (High).
    const struct
    {
        data::Locality locality;
        const char *json;
    } cases[] = {
        {data::Locality::Medium,
         "{\"system\":\"ScratchPipe multi-GPU\",\"iterations\":5,"
         "\"seconds_per_iteration\":0.022066864761904764,"
         "\"breakdown\":{\"Load\":0.00069504761904761901,"
         "\"Plan\":0.00054560000000000003,"
         "\"Collect\":0.011435908571428573,"
         "\"Exchange\":0.0012130959999999999,"
         "\"Insert\":0.011435908571428573,"
         "\"Train\":0.014745664221395612},"
         "\"busy\":{\"iteration_seconds\":0.022066864761904764,"
         "\"cpu_busy_seconds\":0.022066864761904764,"
         "\"gpu_busy_seconds\":0.0060694686045067239},"
         "\"hit_rate\":0.58101440429687501,\"gpu_bytes\":4377326592,"
         "\"bottleneck\":\"resource:cpu_dram\"}"},
        {data::Locality::High,
         "{\"system\":\"ScratchPipe multi-GPU\",\"iterations\":5,"
         "\"seconds_per_iteration\":0.014668034806679563,"
         "\"breakdown\":{\"Load\":0.00069504761904761901,"
         "\"Plan\":0.00054560000000000003,"
         "\"Collect\":0.0029415605194805195,"
         "\"Exchange\":0.0006765600000000001,"
         "\"Insert\":0.0029415605194805195,"
         "\"Train\":0.014668034806679563},"
         "\"busy\":{\"iteration_seconds\":0.014668034806679563,"
         "\"cpu_busy_seconds\":0.0050781686580086581,"
         "\"gpu_busy_seconds\":0.004864504190877094},"
         "\"hit_rate\":0.90645690917968746,\"gpu_bytes\":4377326592,"
         "\"bottleneck\":\"Train\"}"},
    };
    for (const auto &c : cases) {
        PaperWorkload w(c.locality);
        ScratchPipeSystem multi(w.model, kHw, defaultOptions(), kGpus);
        const auto result = multi.simulate(w.dataset, w.stats, w.iters);
        EXPECT_EQ(result.toJson(), c.json)
            << data::localityName(c.locality);
    }
}

TEST(ScratchPipeMultiGpu, StrawmanModeRejected)
{
    PaperWorkload w(data::Locality::Medium);
    ScratchPipeOptions options = defaultOptions();
    options.pipelined = false;
    EXPECT_THROW(ScratchPipeSystem(w.model, kHw, options, kGpus),
                 FatalError);
}

} // namespace
} // namespace sp::sys
