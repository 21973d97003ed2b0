#include "sys/scratchpipe_sys.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "emb/traffic.h"
#include "nn/dlrm.h"
#include "nn/flops.h"
#include "sys/plan_fanout.h"
#include "sys/registry.h"

namespace sp::sys
{

ScratchPipeSystem::ScratchPipeSystem(const ModelConfig &model,
                                     const sim::HardwareConfig &hardware,
                                     const ScratchPipeOptions &options,
                                     int gpus)
    : model_(model), latency_(hardware), options_(options), gpus_(gpus)
{
    model_.validate();
    fatalIf(gpus < 1, "gpus must be >= 1, got ", gpus);
    fatalIf(gpus > 1 && !options.pipelined,
            "the multi-GPU extension models the pipelined design only");
    slots_per_table_ = core::ScratchPipeController::provisionedSlots(
        options.cache_fraction, model_.trace.rows_per_table,
        options.pipelined ? options.past_window : 0,
        options.pipelined ? options.future_window : 0,
        model_.trace.idsPerTable(), options.enforce_capacity_bound);
}

RunResult
ScratchPipeSystem::simulate(const data::TraceDataset &dataset,
                            const BatchStats &stats, uint64_t iterations,
                            uint64_t warmup) const
{
    fatalIf(iterations == 0, "need at least one iteration");
    fatalIf(warmup + iterations > dataset.numBatches(),
            "dataset has only ", dataset.numBatches(), " batches");

    const auto &hw = latency_.config();
    const auto &trace = model_.trace;
    const uint64_t batch = trace.batch_size;
    const size_t rb = model_.rowBytes();
    const size_t gpus = static_cast<size_t>(gpus_);
    // Per-row optimizer state (AdaGrad) migrates with fills,
    // write-backs and scatter updates -- but not with gathers.
    const size_t rb_state = rb + model_.optimizerStateBytesPerRow();
    const double n_total = static_cast<double>(trace.idsPerBatch());
    const uint64_t n_per_table = trace.idsPerTable();
    // GPU g owns tables t = g (mod gpus); GPU 0 owns the most.
    const size_t tables_per_gpu = (trace.num_tables + gpus - 1) / gpus;
    using CpuPath = sim::LatencyModel::CpuPath;

    // Real controllers (phantom storage) drive hit/miss behaviour.
    core::ControllerConfig cc;
    cc.num_slots = slots_per_table_;
    cc.dim = model_.embedding_dim;
    cc.past_window = options_.pipelined ? options_.past_window : 0;
    cc.future_window = options_.pipelined ? options_.future_window : 0;
    cc.policy = options_.policy;
    cc.backing = cache::SlotArray::Backing::Phantom;
    cc.warm_start = options_.warm_start;
    // shard=0 means one shard per pool thread (perf knob only: any
    // width plans bit-identically).
    cc.plan_shards =
        options_.plan_shards == 0
            ? static_cast<uint32_t>(common::ThreadPool::global().size())
            : options_.plan_shards;
    cc.probe = options_.probe;
    cc.ids_per_batch = n_per_table;
    std::vector<core::ScratchPipeController> controllers =
        PlanFanout::makeControllers(cc, trace.num_tables);

    // Stage demand accumulators, averaged after the loop.
    const char *stage_names[6] = {"Load",     "Plan",   "Collect",
                                  "Exchange", "Insert", "Train"};
    std::vector<sim::StageDemand> total(6);
    for (int s = 0; s < 6; ++s) {
        total[s].name = stage_names[s];
        total[s].overhead = hw.pipeline_stage_overhead;
    }
    // Train carries the framework's per-iteration overhead instead of
    // a bare pipeline sync.
    total[5].overhead = gpus > 1 ? hw.multi_gpu_iteration_overhead
                                 : hw.gpu_iteration_overhead;

    uint64_t total_hits = 0, total_ids = 0;
    const nn::DlrmConfig dlrm = model_.dlrmConfig();
    // The MLPs train data-parallel: each GPU runs 1/gpus of the FLOPs.
    const double flops = nn::dlrmIterationFlops(dlrm, batch) / gpus;
    // MLP parameter bytes, all-reduced across GPUs every iteration.
    const double param_bytes =
        gpus > 1 ? static_cast<double>(
                       nn::DlrmModel(dlrm, 1).parameterCount()) *
                       sizeof(float)
                 : 0.0;

    // Tables are independent (one controller each), so their [Plan]
    // stages fan out across the shared pool.
    PlanFanout fanout(trace.num_tables, cc.future_window);

    // Demand/traffic accounting for one measured batch: a pure
    // reduction over that batch's per-table outcomes into the stage
    // accumulators.
    const auto account = [&](uint64_t i,
                             const std::vector<TablePlanOutcome>
                                 &outcomes) {
        // The shared CPU DRAM serves every GPU's fills and write-backs
        // (sum); GPU-side stages are bound by the busiest GPU (max).
        uint64_t fills = 0, evicts = 0, gpu_fills = 0, gpu_evicts = 0;
        for (size_t g = 0; g < gpus; ++g) {
            uint64_t fills_g = 0, evicts_g = 0;
            for (size_t t = g; t < trace.num_tables; t += gpus) {
                fills_g += outcomes[t].fills;
                evicts_g += outcomes[t].evicts;
                total_hits += outcomes[t].hits;
                total_ids += outcomes[t].ids;
            }
            fills += fills_g;
            evicts += evicts_g;
            gpu_fills = std::max(gpu_fills, fills_g);
            gpu_evicts = std::max(gpu_evicts, evicts_g);
        }

        // Fills and victims move per GPU; the CPU applies every GPU's
        // write-backs.
        const double fill_bytes = static_cast<double>(gpu_fills) * rb_state;
        const double evict_bytes =
            static_cast<double>(gpu_evicts) * rb_state;
        const double writeback_bytes =
            static_cast<double>(evicts) * rb_state;

        // [Load]: stream the next batch's IDs through host memory.
        {
            emb::Traffic t;
            t.dense_read_bytes = n_total * sizeof(uint64_t);
            t.dense_write_bytes = n_total * sizeof(uint64_t);
            total[0].demand += latency_.cpuDemand(t, CpuPath::Runtime);
        }
        // [Plan]: each GPU's IDs H2D, Hit-Map probes and mask
        // maintenance on its own tables.
        {
            const double gpu_ids =
                static_cast<double>(tables_per_gpu) * n_per_table;
            total[1].demand +=
                latency_.pcieH2DDemand(gpu_ids * sizeof(uint64_t));
            emb::Traffic t;
            t.dense_read_bytes = gpu_ids * 16.0; // hash probes
            t.dense_read_bytes += static_cast<double>(slots_per_table_) *
                                  tables_per_gpu * sizeof(uint16_t);
            t.dense_write_bytes += static_cast<double>(slots_per_table_) *
                                   tables_per_gpu * sizeof(uint16_t);
            total[1].demand += latency_.gpuMemDemand(t);
        }
        // [Collect]: CPU gathers fills; GPU reads victims to staging.
        {
            emb::Traffic cpu = emb::gatherTraffic(fills, rb);
            total[2].demand += latency_.cpuDemand(cpu, CpuPath::Runtime);
            emb::Traffic gpu;
            gpu.sparse_read_bytes = evict_bytes;
            gpu.dense_write_bytes = evict_bytes;
            total[2].demand += latency_.gpuMemDemand(gpu);
        }
        // [Exchange]: full-duplex PCIe.
        {
            total[3].demand += latency_.pcieH2DDemand(fill_bytes);
            total[3].demand += latency_.pcieD2HDemand(evict_bytes);
        }
        // [Insert]: GPU writes fills into Storage; CPU applies the
        // write-backs to the embedding tables.
        {
            emb::Traffic gpu;
            gpu.dense_read_bytes = fill_bytes;
            gpu.sparse_write_bytes = fill_bytes;
            total[4].demand += latency_.gpuMemDemand(gpu);
            emb::Traffic cpu;
            cpu.dense_read_bytes = writeback_bytes;
            cpu.sparse_write_bytes = writeback_bytes;
            total[4].demand += latency_.cpuDemand(cpu, CpuPath::Runtime);
        }
        // [Train]: GPU 0's embedding work at HBM speed, its share of
        // the MLPs, and (gpus > 1) the NVLink collectives.
        {
            emb::Traffic gpu;
            for (size_t t = 0; t < trace.num_tables; t += gpus) {
                const size_t unique = stats.unique(i, t);
                gpu += emb::embeddingForwardTraffic(n_per_table, batch, rb);
                gpu += emb::duplicateTraffic(batch, n_per_table, rb);
                gpu += emb::coalesceTraffic(n_per_table, unique, rb);
                // The optimizer update reads/writes state with the row.
                gpu += emb::scatterTraffic(unique, rb_state);
            }
            total[5].demand += latency_.gpuMemDemand(gpu);
            total[5].demand += latency_.gpuComputeDemand(flops);
            // Each GPU uploads its batch/gpus share of the dense input.
            total[5].demand += latency_.pcieH2DDemand(
                static_cast<double>(batch) / gpus *
                (trace.dense_features + 1) * sizeof(float));
            // All-to-all of pooled embeddings (forward + backward) and
            // the MLP gradient all-reduce; both are zero at gpus = 1.
            const double a2a_bytes = static_cast<double>(batch) *
                                     tables_per_gpu * rb * (gpus - 1.0) /
                                     gpus;
            total[5].demand += latency_.nvlinkDemand(2.0 * a2a_bytes);
            total[5].demand += latency_.nvlinkDemand(
                2.0 * param_bytes * (gpus - 1.0) / gpus);
        }
    };

    // Warm-up batches run through the controllers (populating the
    // scratchpad toward steady state, as the paper's measurements do)
    // but contribute nothing to the timing accumulators.
    for (uint64_t i = 0; i < warmup + iterations; ++i) {
        const auto &outcomes = fanout.run(controllers, dataset, i);
        if (i >= warmup)
            account(i, outcomes);
    }

    // Average demands over the measured iterations.
    const double inv = 1.0 / static_cast<double>(iterations);
    for (auto &stage : total) {
        for (auto &s : stage.demand.seconds)
            s *= inv;
    }

    RunResult result;
    result.iterations = iterations;
    result.system_name = name();
    if (options_.pipelined) {
        const auto solution = sim::solvePipeline(total);
        result.seconds_per_iteration = solution.cycle_time;
        result.bottleneck = solution.bottleneck;
        for (size_t s = 0; s < total.size(); ++s)
            result.breakdown.add(total[s].name,
                                 solution.stage_latencies[s]);
    } else {
        result.seconds_per_iteration = sim::sequentialIterationTime(total);
        for (const auto &stage : total)
            result.breakdown.add(stage.name, stage.latency());
    }

    // Busy-time attribution: per retired iteration each stage's work
    // executes exactly once.
    double cpu_busy = 0.0, gpu_busy = 0.0;
    for (const auto &stage : total) {
        cpu_busy += stage.demand[sim::Resource::CpuDram];
        gpu_busy += stage.demand[sim::Resource::GpuHbm] +
                    stage.demand[sim::Resource::GpuCompute] +
                    stage.demand[sim::Resource::PcieH2D] +
                    stage.demand[sim::Resource::PcieD2H] +
                    stage.demand[sim::Resource::NvLink];
    }
    result.busy.iteration_seconds = result.seconds_per_iteration;
    result.busy.cpu_busy_seconds = cpu_busy;
    result.busy.gpu_busy_seconds = gpu_busy;

    result.hit_rate = total_ids == 0
                          ? 0.0
                          : static_cast<double>(total_hits) /
                                static_cast<double>(total_ids);
    double gpu_bytes = 0.0;
    for (const auto &controller : controllers) {
        gpu_bytes += static_cast<double>(controller.storage().storageBytes());
        gpu_bytes += static_cast<double>(controller.metadataBytes());
    }
    result.gpu_bytes = gpu_bytes;
    return result;
}

void
registerScratchPipeSystems(Registry &registry)
{
    registry.addEntry(
        {"scratchpipe", ScratchPipeSystem::kDescriptionPipelined,
         /*uses_cache_fraction=*/true,
         /*uses_scratchpipe_options=*/true,
         /*uses_serve_options=*/false,
         [](const ModelConfig &model, const sim::HardwareConfig &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<ScratchPipeSystem>(
                 model, hw, spec.scratchPipeOptions(true));
         }});
    registry.addEntry(
        {"strawman", ScratchPipeSystem::kDescriptionStrawman,
         /*uses_cache_fraction=*/true,
         /*uses_scratchpipe_options=*/true,
         /*uses_serve_options=*/false,
         [](const ModelConfig &model, const sim::HardwareConfig &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<ScratchPipeSystem>(
                 model, hw, spec.scratchPipeOptions(false));
         }});
}

} // namespace sp::sys
