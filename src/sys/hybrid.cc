#include "sys/hybrid.h"

#include <memory>

#include "common/logging.h"
#include "emb/traffic.h"
#include "nn/flops.h"
#include "sys/registry.h"

namespace sp::sys
{

HybridCpuGpu::HybridCpuGpu(const ModelConfig &model,
                           const sim::HardwareConfig &hardware)
    : model_(model), latency_(hardware)
{
    model_.validate();
}

RunResult
HybridCpuGpu::simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup) const
{
    fatalIf(iterations == 0, "need at least one iteration");
    fatalIf(warmup + iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");
    fatalIf(warmup + iterations > stats.iterations(), "stats cover only ",
            stats.iterations(), " batches");

    const auto &hw = latency_.config();
    const auto &trace = model_.trace;
    const uint64_t n_per_table = trace.idsPerTable();
    const uint64_t batch = trace.batch_size;
    const size_t rb = model_.rowBytes();
    using CpuPath = sim::LatencyModel::CpuPath;

    double total_fwd = 0.0, total_bwd = 0.0, total_gpu = 0.0;
    double cpu_busy = 0.0, gpu_busy = 0.0;

    // The baseline is stateless across iterations; warm-up batches are
    // simply skipped (the parameter exists for interface uniformity
    // with the stateful cache systems).
    for (uint64_t i = warmup; i < warmup + iterations; ++i) {
        // CPU embedding forward: gather + reduce per table.
        emb::Traffic fwd;
        for (size_t t = 0; t < trace.num_tables; ++t)
            fwd += emb::embeddingForwardTraffic(n_per_table, batch, rb);
        const double t_fwd = latency_.cpuTime(fwd, CpuPath::Framework) +
                             hw.cpu_stage_overhead;

        // Reduced embeddings + dense inputs to the GPU.
        const double h2d_bytes =
            static_cast<double>(batch) * trace.num_tables * rb +
            static_cast<double>(batch) * (trace.dense_features + 1) *
                sizeof(float);
        const double t_h2d = latency_.pcieTime(h2d_bytes);

        // GPU DNN training.
        const double flops =
            nn::dlrmIterationFlops(model_.dlrmConfig(), batch);
        const double t_mlp = latency_.gpuComputeTime(flops) +
                             hw.gpu_iteration_overhead;

        // Embedding gradients back to the CPU.
        const double d2h_bytes =
            static_cast<double>(batch) * trace.num_tables * rb;
        const double t_d2h = latency_.pcieTime(d2h_bytes);

        // CPU embedding backward: duplicate + coalesce + scatter.
        emb::Traffic bwd;
        for (size_t t = 0; t < trace.num_tables; ++t) {
            bwd += emb::embeddingBackwardTraffic(
                n_per_table, batch, stats.unique(i, t), rb);
        }
        const double t_bwd = latency_.cpuTime(bwd, CpuPath::Framework) +
                             hw.cpu_stage_overhead;

        total_fwd += t_fwd;
        total_bwd += t_bwd;
        total_gpu += t_h2d + t_mlp + t_d2h;
        cpu_busy += t_fwd + t_bwd;
        gpu_busy += t_h2d + t_mlp + t_d2h;
    }

    const double inv = 1.0 / static_cast<double>(iterations);
    RunResult result;
    result.system_name = name();
    result.iterations = iterations;
    result.breakdown.add("CPU embedding forward", total_fwd * inv);
    result.breakdown.add("CPU embedding backward", total_bwd * inv);
    result.breakdown.add("GPU", total_gpu * inv);
    result.seconds_per_iteration = result.breakdown.total();
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = cpu_busy * inv;
    result.busy.gpu_busy_seconds = gpu_busy * inv;
    return result;
}

void
registerHybridSystem(Registry &registry)
{
    registry.addEntry(
        {"hybrid", HybridCpuGpu::kDescription,
         /*key_groups=*/0,
         [](const ModelConfig &model, const sim::HardwareConfig &hw,
            const SystemSpec &) -> std::unique_ptr<System> {
             return std::make_unique<HybridCpuGpu>(model, hw);
         }});
}

} // namespace sp::sys
