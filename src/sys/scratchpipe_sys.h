/**
 * @file
 * The ScratchPipe system (paper Section IV) and its straw-man variant.
 *
 * Six stages -- [Load, Plan, Collect, Exchange, Insert, Train] -- run
 * the dynamic always-hit GPU scratchpad. The timing model executes the
 * real controller (Hit-Map, Hold masks, Algorithm 1) over the trace to
 * obtain the exact per-batch fill/evict counts, then charges each
 * stage's traffic to the hardware resources:
 *
 *   Load      host reads the next mini-batch's sparse IDs;
 *   Plan      IDs H2D + Hit-Map query + victim planning (GPU);
 *   Collect   CPU gathers missed rows; GPU reads victim rows;
 *   Exchange  PCIe H2D fills || D2H write-backs (full duplex);
 *   Insert    GPU fills Storage; CPU applies write-backs;
 *   Train     embedding fwd/bwd at HBM speed + MLP training.
 *
 * Pipelined mode retires one iteration per steady-state cycle
 * (sim::solvePipeline); the straw-man executes the same stages
 * sequentially (paper Section IV-B) with windows shrunk to the current
 * batch only.
 *
 * Multi-GPU extension (paper Section VI-G). The paper discusses,
 * without evaluating, table-wise model-parallel ScratchPipe: each GPU
 * owns a subset of the tables and runs one cache-manager instance per
 * owned table; since table-wise parallelism keeps each table's
 * forward/backward on one GPU, no new hazards appear. The stage model
 * is unchanged -- only the resources each stage is charged to move.
 * With `gpus` > 1, GPU g owns tables t = g (mod gpus) and per cycle:
 *  - CPU DRAM serves every GPU's [Collect]/[Insert] traffic (shared,
 *    so the sum over GPUs is charged);
 *  - each GPU has its own HBM, PCIe lanes and SMs (the busiest GPU's
 *    demand is charged);
 *  - [Train] runs GPU 0's owned tables, 1/gpus of the MLP FLOPs and
 *    of the dense-input upload, plus the all-to-all of pooled
 *    embeddings and the data-parallel MLP all-reduce over NVLink;
 *  - the distributed framework's per-iteration overhead replaces the
 *    single-GPU one.
 * The paper predicts the extension is viable but not cost-effective
 * -- the DNNs were never the bottleneck, so the extra GPUs mostly
 * idle; bench_extension_multigpu_scratchpipe quantifies it.
 */

#ifndef SP_SYS_SCRATCHPIPE_SYS_H
#define SP_SYS_SCRATCHPIPE_SYS_H

#include "cache/probe_kernel.h"
#include "cache/replacement.h"
#include "data/dataset.h"
#include "sim/latency_model.h"
#include "sim/pipeline_solver.h"
#include "sys/batch_stats.h"
#include "sys/run_result.h"
#include "sys/system.h"
#include "sys/system_config.h"

namespace sp::sys
{

/** Tunables of the ScratchPipe runtime. */
struct ScratchPipeOptions
{
    /** Nominal scratchpad capacity as a fraction of each table. */
    double cache_fraction = 0.10;
    /** Pipelined ScratchPipe (true) or sequential straw-man (false). */
    bool pipelined = true;
    /** Victim-selection policy (paper default LRU). */
    cache::PolicyKind policy = cache::PolicyKind::Lru;
    /** Past window width (paper: 3). Ignored by the straw-man. */
    uint32_t past_window = 3;
    /** Future window width (paper: 2). Ignored by the straw-man. */
    uint32_t future_window = 2;
    /**
     * Grow the scratchpad to the §VI-D worst-case window working set
     * when the nominal fraction falls below it (required for the
     * always-hit guarantee on adversarial traces).
     */
    bool enforce_capacity_bound = true;
    /**
     * Begin measurement from the LRU steady state (scratchpad
     * pre-filled with the hottest rows) instead of a cold cache; the
     * paper reports steady-state iteration latencies.
     */
    bool warm_start = true;
    /**
     * Engine knob: shard each table's Hit-Map mark-pass probes into
     * this many contiguous ID ranges over the worker pool
     * (ControllerConfig::plan_shards). 1 = unsharded; 0 = one shard
     * per pool thread. Bit-identical at any width. Spec key: shard=N.
     */
    uint32_t plan_shards = 1;
    /**
     * Engine knob: batched Hit-Map probe kernel for every controller
     * (ControllerConfig::probe). auto = follow SP_SIMD (scalar |
     * native); scalar/native pin it. All kernels are bit-identical
     * (the PR-5 equivalence harness), so this only moves wall-clock.
     * Spec key: probe=auto|scalar|native.
     */
    cache::ProbeMode probe = cache::ProbeMode::Auto;
};

/** Timing model of ScratchPipe / straw-man. */
class ScratchPipeSystem : public System
{
  public:
    /**
     * `gpus` is the table-parallel GPU count: 1 is the paper's design,
     * more models the Section VI-G extension (pipelined only).
     */
    ScratchPipeSystem(const ModelConfig &model,
                      const sim::HardwareConfig &hardware,
                      const ScratchPipeOptions &options, int gpus = 1);

    RunResult simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup = 0) const override;

    static constexpr const char *kDescriptionPipelined =
        "dynamic always-hit GPU scratchpad, six-stage pipeline "
        "(Section IV-C)";
    static constexpr const char *kDescriptionStrawman =
        "dynamic scratchpad, sequential stages (Section IV-B)";

    std::string name() const override
    {
        if (!options_.pipelined)
            return "Straw-man";
        return gpus_ > 1 ? "ScratchPipe multi-GPU" : "ScratchPipe";
    }
    std::string description() const override
    {
        return options_.pipelined ? kDescriptionPipelined
                                  : kDescriptionStrawman;
    }

    /** Provisioned Storage slots per table (after the §VI-D bound). */
    uint32_t slotsPerTable() const { return slots_per_table_; }

    const ScratchPipeOptions &options() const { return options_; }

  private:
    ModelConfig model_;
    sim::LatencyModel latency_;
    ScratchPipeOptions options_;
    int gpus_ = 1;
    uint32_t slots_per_table_ = 0;
};

} // namespace sp::sys

#endif // SP_SYS_SCRATCHPIPE_SYS_H
