/**
 * @file
 * google-benchmark microbenchmarks of the primitives behind the
 * system models: Zipf sampling, Hit-Map operations, hold-mask
 * maintenance, controller planning, embedding gather/reduce and
 * gradient coalescing, and the blocked GEMM. These back the
 * calibration constants in sim::HardwareConfig with measured
 * throughput of the host-side implementations.
 */

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "cache/hit_map.h"
#include "cache/probe_kernel.h"
#include "core/controller.h"
#include "data/zipf.h"
#include "emb/embedding_ops.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

using namespace sp;

namespace
{

void
BM_ZipfSample(benchmark::State &state)
{
    data::ZipfSampler sampler(10'000'000,
                              static_cast<double>(state.range(0)) / 100.0);
    tensor::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(0)->Arg(77)->Arg(105);

void
BM_HitMapFindHit(benchmark::State &state)
{
    cache::HitMap map(1 << 20);
    for (uint32_t k = 0; k < (1u << 20); ++k)
        map.insert(k * 2, k);
    tensor::Rng rng(2);
    for (auto _ : state) {
        const uint32_t key =
            static_cast<uint32_t>(rng.uniformInt(1 << 20)) * 2;
        benchmark::DoNotOptimize(map.find(key));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitMapFindHit);

void
BM_HitMapFindMiss(benchmark::State &state)
{
    cache::HitMap map(1 << 20);
    for (uint32_t k = 0; k < (1u << 20); ++k)
        map.insert(k * 2, k);
    tensor::Rng rng(3);
    for (auto _ : state) {
        const uint32_t key =
            static_cast<uint32_t>(rng.uniformInt(1 << 20)) * 2 + 1;
        benchmark::DoNotOptimize(map.find(key));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitMapFindMiss);

/** The hitmap_probe fixture: a filled HitMap plus a probe-key stream. */
struct ProbeWorkload
{
    cache::HitMap map;
    std::vector<uint64_t> keys;
};

/**
 * Fill a `buckets`-bucket map (buckets must be a power of two; the
 * fill stays below the growth threshold, so load_pct <= 65) to
 * load_pct% occupancy with uniform keys below 2^30, then draw
 * `num_keys` probe keys: hit_pct% sampled from the resident set, the
 * rest from the disjoint [2^30, 2^31) range (guaranteed misses).
 */
ProbeWorkload
makeProbeWorkload(size_t buckets, int hit_pct, int load_pct,
                  size_t num_keys, uint64_t seed)
{
    // HitMap sizes to bit_ceil(2 * expected), so buckets/2 yields
    // exactly `buckets` for a power-of-two input; load_pct <= 65
    // stays below the 0.7 growth threshold.
    ProbeWorkload workload{cache::HitMap(buckets / 2), {}};
    tensor::Rng rng(seed);
    std::vector<uint64_t> resident;
    while (workload.map.size() * 100 <
           buckets * static_cast<size_t>(load_pct)) {
        const uint64_t key = rng.uniformInt(1u << 30);
        if (!workload.map.contains(key)) {
            workload.map.insert(
                key, static_cast<uint32_t>(workload.map.size()));
            resident.push_back(key);
        }
    }
    workload.keys.resize(num_keys);
    for (auto &key : workload.keys) {
        const bool hit = !resident.empty() &&
                         rng.uniform() * 100.0 <
                             static_cast<double>(hit_pct);
        key = hit ? resident[rng.uniformInt(resident.size())]
                  : (1u << 30) + rng.uniformInt(1u << 30);
    }
    return workload;
}

/**
 * Batched-probe kernels over a hit-rate x load-factor grid:
 * Args({hit_pct, load_pct}). hitmap_probe_scalar runs the pipelined
 * scalar reference, hitmap_probe_simd whatever kernel runtime
 * dispatch picks (AVX2; identical to scalar on hosts without it,
 * so the pair doubles as a parity check of the grid).
 */
void
probeGridArgs(benchmark::internal::Benchmark *bench)
{
    for (const int hit_pct : {50, 95, 100})
        for (const int load_pct : {30, 50, 65})
            bench->Args({hit_pct, load_pct});
}

void
BM_HitMapProbe(benchmark::State &state, cache::ProbeMode mode)
{
    constexpr size_t kBuckets = 1 << 21; // 16 MB of entries: DRAM-bound
    ProbeWorkload workload = makeProbeWorkload(
        kBuckets, static_cast<int>(state.range(0)),
        static_cast<int>(state.range(1)), 8192, 8);
    workload.map.setProbeMode(mode);
    std::vector<uint32_t> out(workload.keys.size());
    for (auto _ : state) {
        workload.map.findMany(workload.keys, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(workload.keys.size()));
    state.SetLabel(workload.map.probeKernelName());
}
BENCHMARK_CAPTURE(BM_HitMapProbe, hitmap_probe_scalar,
                  cache::ProbeMode::Scalar)
    ->Apply(probeGridArgs);
BENCHMARK_CAPTURE(BM_HitMapProbe, hitmap_probe_simd,
                  cache::ProbeMode::Native)
    ->Apply(probeGridArgs);

void
BM_HitMapInsertErase(benchmark::State &state)
{
    cache::HitMap map(1 << 16);
    uint32_t key = 1;
    for (auto _ : state) {
        map.insert(key, key);
        map.erase(key);
        key = (key % 1000000) + 1;
    }
    state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_HitMapInsertErase);

void
BM_ControllerPlan(benchmark::State &state)
{
    // One paper-scale table: 40960 IDs per batch against 1M slots.
    core::ControllerConfig config;
    config.num_slots = 1'000'000;
    config.dim = 128;
    config.backing = cache::SlotArray::Backing::Phantom;
    core::ScratchPipeController controller(config);

    data::ZipfSampler sampler(10'000'000, 0.77);
    tensor::Rng rng(4);
    std::vector<std::vector<uint64_t>> batches(8);
    for (auto &batch : batches) {
        batch.resize(40960);
        for (auto &id : batch)
            id = sampler.sample(rng);
    }
    size_t next = 0;
    for (auto _ : state) {
        const auto &current = batches[next];
        const std::span<const uint64_t> futures[2] = {
            batches[(next + 1) % batches.size()],
            batches[(next + 2) % batches.size()]};
        benchmark::DoNotOptimize(controller.plan(current, futures));
        next = (next + 1) % batches.size();
    }
    state.SetItemsProcessed(state.iterations() * 40960);
}
BENCHMARK(BM_ControllerPlan)->Unit(benchmark::kMillisecond);

void
BM_GatherReduce(benchmark::State &state)
{
    const size_t dim = static_cast<size_t>(state.range(0));
    emb::EmbeddingTable table(100'000, dim);
    tensor::Rng rng(5);
    table.initRandom(rng, 0.1f);
    std::vector<uint64_t> ids(2048 * 20);
    for (auto &id : ids)
        id = rng.uniformInt(100'000);
    tensor::Matrix out(2048, dim);
    for (auto _ : state) {
        emb::gatherReduce(table, ids, 20, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * ids.size() * dim *
                            sizeof(float));
}
BENCHMARK(BM_GatherReduce)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void
BM_DuplicateAndCoalesce(benchmark::State &state)
{
    tensor::Rng rng(6);
    std::vector<uint64_t> ids(2048 * 20);
    for (auto &id : ids)
        id = rng.uniformInt(100'000);
    tensor::Matrix grads(2048, 128);
    grads.fillNormal(rng, 1.0f);
    for (auto _ : state) {
        auto coalesced = emb::duplicateAndCoalesce(ids, grads, 20);
        benchmark::DoNotOptimize(coalesced.ids.data());
    }
    state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_DuplicateAndCoalesce)->Unit(benchmark::kMillisecond);

void
BM_Gemm(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    tensor::Rng rng(7);
    tensor::Matrix a(n, n), b(n, n), c(n, n);
    a.fillNormal(rng, 1.0f);
    b.fillNormal(rng, 1.0f);
    for (auto _ : state) {
        tensor::gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        tensor::gemmFlops(n, n, n) * state.iterations() * 1e-9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void
BM_HoldMaskAdvance(benchmark::State &state)
{
    core::HoldMask mask(1'000'000, 3, 2);
    for (uint32_t s = 0; s < 1'000'000; s += 3)
        mask.markCurrent(s);
    for (auto _ : state) {
        mask.advance();
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_HoldMaskAdvance)->Unit(benchmark::kMicrosecond);

} // namespace
