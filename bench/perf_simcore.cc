/**
 * @file
 * perf_simcore: simulation-engine microbenchmarks.
 *
 * Times the three layers the parallel engine accelerates --
 *
 *   trace-gen  TraceDataset construction (batches fan out over the
 *              worker pool);
 *   workload-gen  the same construction under the workload shaper's
 *              drift / churn / flash-crowd overlays (data/workload.h),
 *              pooled streams checksummed against serial;
 *   trace-cache  content-addressed TraceStore acquisition, cold
 *              (generate + atomic publish) vs warm (mmap + header
 *              validation) over a private temp cache dir; reported
 *              with cold in the serial column and warm in the
 *              parallel column, so `speedup` is the warm-start win;
 *   plan       per-table ScratchPipeController::plan fan-out, reported
 *              as planned IDs/s (the controller hot path: batched
 *              Hit-Map probes + allocation-free PlanResult), measured
 *              at two engine modes -- plain fan-out and sharded mark
 *              passes;
 *   probe      the batched Hit-Map probe kernels over a hit-rate x
 *              load-factor grid, scalar reference vs the runtime-
 *              dispatched SIMD kernel (fingerprint cross-checked);
 *   runner     an end-to-end ExperimentRunner sweep over several
 *              system specs (--jobs routing);
 *
 * -- once serially (pool width 1) and once on a pool as wide as the
 * host, then emits BENCH_simcore.json so the perf trajectory is
 * tracked from PR 2 onward. Results are bit-identical across every
 * width and mode by construction (asserted here for the planning
 * passes).
 *
 *   perf_simcore                 paper-ish scale (8 x 10^6-row tables)
 *   perf_simcore --quick         CI scale, a few seconds
 *   perf_simcore --jobs 16       pin the parallel width
 *   perf_simcore --shards 4      pin the mark-pass shard width
 *   perf_simcore --out bench.json
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <sstream>
#include <vector>

#include "cache/hit_map.h"
#include "cache/probe_kernel.h"
#include "common/args.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/workload.h"
#include "core/controller.h"
#include "data/dataset.h"
#include "data/trace_store.h"
#include "data/workload.h"
#include "metrics/table_printer.h"
#include "sys/experiment.h"
#include "sys/plan_fanout.h"
#include "sys/registry.h"

using namespace sp;
using Clock = std::chrono::steady_clock;

namespace
{

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchResult
{
    std::string name;
    double serial_s = 0.0;
    double parallel_s = 0.0;
    double work_units = 0.0; // IDs planned, IDs generated, systems run
    const char *unit = "";

    double
    speedup() const
    {
        return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    }
    double
    throughput() const
    {
        return parallel_s > 0.0 ? work_units / parallel_s : 0.0;
    }
};

/** Time `fn()` at pool width `jobs` (the global pool drives every
 *  parallel site), best of `reps`. */
double
timeAtWidth(size_t jobs, int reps, const std::function<void()> &fn)
{
    common::ThreadPool::setGlobalThreads(jobs);
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        const double elapsed = seconds(start);
        if (r == 0 || elapsed < best)
            best = elapsed;
    }
    return best;
}

BenchResult
benchTraceGeneration(const sys::ModelConfig &model, uint64_t batches,
                     size_t jobs, int reps)
{
    BenchResult result;
    result.name = "trace_generation";
    result.unit = "IDs/s";
    result.work_units = static_cast<double>(batches) *
                        static_cast<double>(model.trace.idsPerBatch());
    result.serial_s = timeAtWidth(1, reps, [&model, batches] {
        data::TraceDataset dataset(model.trace, batches);
    });
    result.parallel_s = timeAtWidth(jobs, reps, [&model, batches] {
        data::TraceDataset dataset(model.trace, batches);
    });
    return result;
}

/**
 * The workload-shaping family: shaped trace generation -- drift,
 * churn and flash-crowd overlays (data/workload.h) on top of the
 * stationary samplers -- serial vs pooled. The pooled stream is
 * checksummed against the serial one: shaping is allowed to cost
 * time, never determinism.
 */
std::vector<BenchResult>
benchWorkloadGen(const sys::ModelConfig &model, uint64_t batches,
                 size_t jobs, int reps)
{
    const struct
    {
        const char *name;
        const char *spec;
    } scenarios[] = {
        {"workload_gen_drift", "drift_amp=0.4,drift_period=4,phase=1"},
        {"workload_gen_churn", "churn_k=1024,churn_period=4"},
        {"workload_gen_burst",
         "burst_frac=0.3,burst_period=8,burst_len=2,burst_ranks=512"},
    };

    const auto checksum = [](const data::TraceDataset &dataset) {
        uint64_t sum = 0;
        for (uint64_t b = 0; b < dataset.numBatches(); ++b) {
            const auto &batch = dataset.batch(b);
            for (size_t t = 0; t < batch.numTables(); ++t)
                for (const uint64_t id : batch.ids(t))
                    sum += id;
        }
        return sum;
    };

    std::vector<BenchResult> results;
    for (const auto &scenario : scenarios) {
        sys::ModelConfig shaped = model;
        shaped.trace.workload =
            data::WorkloadSpec::parse(scenario.spec).config;

        BenchResult result;
        result.name = scenario.name;
        result.unit = "IDs/s";
        result.work_units =
            static_cast<double>(batches) *
            static_cast<double>(shaped.trace.idsPerBatch());
        uint64_t serial_sum = 0, pooled_sum = 0;
        result.serial_s = timeAtWidth(1, reps, [&] {
            serial_sum =
                checksum(data::TraceDataset(shaped.trace, batches));
        });
        result.parallel_s = timeAtWidth(jobs, reps, [&] {
            pooled_sum =
                checksum(data::TraceDataset(shaped.trace, batches));
        });
        fatalIf(pooled_sum != serial_sum, scenario.name,
                ": pooled shaped generation diverged from serial: ",
                pooled_sum, " vs ", serial_sum);
        results.push_back(std::move(result));
    }
    return results;
}

/** One full pass of per-table planning over `dataset` at the given
 *  mark-pass shard width; returns the total hit count as a
 *  determinism fingerprint. */
uint64_t
planPass(const sys::ModelConfig &model, const data::TraceDataset &dataset,
         uint32_t shards)
{
    const auto &trace = model.trace;
    core::ControllerConfig cc;
    cc.num_slots = std::max<uint32_t>(
        core::ScratchPipeController::worstCaseSlots(3, 2,
                                                    trace.idsPerTable()),
        static_cast<uint32_t>(0.05 * trace.rows_per_table));
    cc.dim = model.embedding_dim;
    cc.backing = cache::SlotArray::Backing::Phantom;
    cc.warm_start = true;
    cc.plan_shards = shards;
    std::vector<core::ScratchPipeController> controllers;
    controllers.reserve(trace.num_tables);
    for (size_t t = 0; t < trace.num_tables; ++t) {
        cc.policy_seed = 0x5eed + t;
        controllers.emplace_back(cc);
    }

    // The same fan-out the timing systems use, so the bench measures
    // the production planning path.
    sys::PlanFanout fanout(trace.num_tables, cc.future_window);
    uint64_t total = 0;
    for (uint64_t i = 0; i < dataset.numBatches(); ++i) {
        for (const auto &outcome : fanout.run(controllers, dataset, i))
            total += outcome.hits;
    }
    return total;
}

/** The plan-throughput family: the same pass at every engine mode,
 *  all against one serial (width-1, unsharded) baseline,
 *  with the fingerprints cross-checked. */
std::vector<BenchResult>
benchPlanning(const sys::ModelConfig &model, uint64_t batches, size_t jobs,
              uint32_t shards, int reps)
{
    // Generate once (outside the timed region) at full width.
    common::ThreadPool::setGlobalThreads(jobs);
    const data::TraceDataset dataset(model.trace, batches);
    const double ids = static_cast<double>(batches) *
                       static_cast<double>(model.trace.idsPerBatch());

    uint64_t serial_hits = 0;
    const double serial_s = timeAtWidth(1, reps, [&] {
        serial_hits = planPass(model, dataset, 1);
    });

    const struct
    {
        const char *name;
        uint32_t shards;
    } modes[] = {
        {"plan_fanout", 1},
        {"plan_sharded", shards},
    };

    std::vector<BenchResult> results;
    for (const auto &mode : modes) {
        BenchResult result;
        result.name = mode.name;
        result.unit = "IDs/s";
        result.work_units = ids;
        result.serial_s = serial_s;
        uint64_t hits = 0;
        result.parallel_s = timeAtWidth(jobs, reps, [&] {
            hits = planPass(model, dataset, mode.shards);
        });
        fatalIf(hits != serial_hits, mode.name,
                " diverged from serial planning: ", hits, " hits vs ",
                serial_hits);
        results.push_back(result);
    }
    return results;
}

/**
 * Cold vs warm trace acquisition through the content-addressed
 * TraceStore, over a private temp cache directory. Cold pays
 * generation plus atomic publication; warm is an mmap plus header
 * validation. The cold time lands in the serial column and the warm
 * time in the parallel column, so speedup() reports the warm-start
 * win the cache buys every repeat sweep.
 */
BenchResult
benchTraceCache(const sys::ModelConfig &model, uint64_t batches,
                size_t jobs, int reps)
{
    namespace fs = std::filesystem;
    // Keyed per process, not just per config: two perf_simcore runs
    // on one host must not share (and mutually remove_all) a dir.
    static const uint64_t run_token = static_cast<uint64_t>(
        Clock::now().time_since_epoch().count());
    const fs::path dir =
        fs::temp_directory_path() /
        ("sp-perf-trace-cache-" + model.trace.fingerprint() + "-" +
         std::to_string(run_token));
    data::TraceStore::Options options;
    options.directory = dir.string();
    const data::TraceStore store(options);

    common::ThreadPool::setGlobalThreads(jobs);
    BenchResult result;
    result.name = "trace_cache_acquire";
    result.unit = "IDs/s";
    result.work_units = static_cast<double>(batches) *
                        static_cast<double>(model.trace.idsPerBatch());

    data::TraceStore::AcquireInfo info;
    uint64_t cold_checksum = 0, warm_checksum = 0;
    const auto checksum = [](const data::TraceDataset &dataset) {
        uint64_t sum = 0;
        for (uint64_t b = 0; b < dataset.numBatches(); ++b) {
            const auto &batch = dataset.batch(b);
            for (size_t t = 0; t < batch.numTables(); ++t)
                for (const uint64_t id : batch.ids(t))
                    sum += id;
        }
        return sum;
    };

    for (int r = 0; r < reps; ++r) {
        fs::remove_all(dir);
        const auto start = Clock::now();
        const auto dataset = store.acquire(model.trace, batches, &info);
        const double elapsed = seconds(start);
        fatalIf(info.cache_hit || !info.published,
                "cold acquire unexpectedly hit the cache");
        cold_checksum = checksum(dataset);
        if (r == 0 || elapsed < result.serial_s)
            result.serial_s = elapsed;
    }
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        const auto dataset = store.acquire(model.trace, batches, &info);
        const double elapsed = seconds(start);
        fatalIf(!info.cache_hit, "warm acquire missed the cache");
        warm_checksum = checksum(dataset);
        if (r == 0 || elapsed < result.parallel_s)
            result.parallel_s = elapsed;
    }
    fatalIf(warm_checksum != cold_checksum,
            "cache-served trace diverged from the generated one: ",
            warm_checksum, " vs ", cold_checksum);
    fs::remove_all(dir);
    return result;
}

/**
 * The batched Hit-Map probe family over a hit-rate x load-factor
 * grid: the scalar reference kernel lands in the serial column and
 * the runtime-dispatched kernel (AVX2 when compiled and the CPU
 * supports it) in the parallel column, so `speedup` reports the SIMD
 * win -- or ~1.0 scalar parity on hosts where dispatch falls back.
 * Output fingerprints are cross-checked: a kernel that diverges from
 * scalar by one bit fails the bench, not just the test suite.
 */
std::vector<BenchResult>
benchHitMapProbe(bool quick, int reps)
{
    const size_t buckets = quick ? (1u << 18) : (1u << 21);
    const size_t batch_keys = 1u << 16;
    const int sweeps = quick ? 8 : 24;
    const struct
    {
        int hit_pct;
        int load_pct;
    } grid[] = {{50, 40}, {50, 65}, {95, 40}, {95, 65}};

    std::vector<BenchResult> results;
    for (const auto &point : grid) {
        bench::ProbeWorkload workload = bench::makeProbeWorkload(
            buckets, point.hit_pct, point.load_pct, batch_keys,
            0x9e3779b9u + static_cast<uint64_t>(point.hit_pct * 100 +
                                                point.load_pct));
        std::vector<uint32_t> out(batch_keys);

        const auto pass = [&](cache::ProbeMode mode) {
            workload.map.setProbeMode(mode);
            uint64_t fingerprint = 0;
            for (int s = 0; s < sweeps; ++s) {
                workload.map.findMany(workload.keys, out);
                for (const uint32_t slot : out)
                    fingerprint += slot;
            }
            return fingerprint;
        };

        BenchResult result;
        result.name = "hitmap_probe_h" + std::to_string(point.hit_pct) +
                      "_l" + std::to_string(point.load_pct);
        result.unit = "IDs/s";
        result.work_units = static_cast<double>(batch_keys) *
                            static_cast<double>(sweeps);
        uint64_t scalar_fp = 0, simd_fp = 0;
        result.serial_s = timeAtWidth(1, reps, [&] {
            scalar_fp = pass(cache::ProbeMode::Scalar);
        });
        result.parallel_s = timeAtWidth(1, reps, [&] {
            simd_fp = pass(cache::ProbeMode::Native);
        });
        fatalIf(simd_fp != scalar_fp, result.name, ": kernel '",
                cache::selectProbeKernel(cache::ProbeMode::Native).name,
                "' diverged from scalar: fingerprint ", simd_fp,
                " vs ", scalar_fp);
        results.push_back(std::move(result));
    }
    return results;
}

BenchResult
benchRunnerSweep(const sys::ModelConfig &model, uint64_t iterations,
                 size_t jobs, int reps)
{
    const std::vector<sys::SystemSpec> specs = {
        sys::SystemSpec::parse("hybrid"),
        sys::SystemSpec::parse("static:cache=0.05"),
        sys::SystemSpec::parse("strawman"),
        sys::SystemSpec::parse("scratchpipe"),
        sys::SystemSpec::parse("scratchpipe:policy=lfu"),
        sys::SystemSpec::parse("multigpu")};
    const sim::HardwareConfig hw = sim::HardwareConfig::paperTestbed();

    BenchResult result;
    result.name = "runner_sweep";
    result.unit = "systems/s";
    result.work_units = static_cast<double>(specs.size());

    const auto sweep = [&](uint32_t sweep_jobs) {
        sys::ExperimentOptions options;
        options.iterations = iterations;
        options.warmup = 2;
        options.jobs = sweep_jobs;
        const sys::ExperimentRunner runner(model, hw, options);
        runner.runAll(specs);
    };
    result.serial_s = timeAtWidth(1, reps, [&] { sweep(1); });
    result.parallel_s = timeAtWidth(jobs, reps, [&] {
        sweep(static_cast<uint32_t>(jobs));
    });
    return result;
}

void
writeJson(const std::string &path, const std::vector<BenchResult> &results,
          const sys::ModelConfig &model, size_t jobs, uint32_t shards,
          bool quick)
{
    std::ostringstream os;
    os << "{\"bench\":\"perf_simcore\",\"quick\":"
       << (quick ? "true" : "false") << ",\"jobs\":" << jobs
       << ",\"shards\":" << shards
       << ",\"tables\":" << model.trace.num_tables
       << ",\"rows_per_table\":" << model.trace.rows_per_table
       << ",\"batch_size\":" << model.trace.batch_size
       << ",\"results\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        os << (i == 0 ? "" : ",") << "{\"name\":\"" << r.name
           << "\",\"serial_seconds\":" << r.serial_s
           << ",\"parallel_seconds\":" << r.parallel_s
           << ",\"speedup\":" << r.speedup()
           << ",\"throughput\":" << r.throughput() << ",\"unit\":\""
           << r.unit << "\"}";
    }
    os << "]}";

    std::ofstream file(path);
    fatalIf(!file, "cannot open '", path, "' for writing");
    file << os.str() << "\n";
    fatalIf(!file, "I/O error while writing '", path, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perf_simcore: simulation-engine microbenchmarks "
                   "(trace generation, planning throughput, runner "
                   "sweeps), serial vs pooled");
    args.addBool("quick", "CI scale: small tables, one rep");
    args.addInt("jobs", 0, "parallel pool width (0 = all cores)");
    args.addInt("shards", 0,
                "mark-pass shards per table for the sharded planning "
                "modes (0 = pool width)");
    args.addInt("tables", 8, "embedding tables");
    args.addInt("rows", 1'000'000, "rows per table");
    args.addInt("batch", 2048, "mini-batch size");
    args.addInt("batches", 12, "mini-batches generated/planned");
    args.addString("out", "BENCH_simcore.json", "JSON output path");

    try {
        if (!args.parse(argc, argv)) {
            std::cout << args.usage();
            return 0;
        }
        const bool quick = args.getBool("quick");
        const uint32_t jobs_flag = parseJobsArg(args);
        const size_t jobs = jobs_flag > 0
                                ? jobs_flag
                                : common::ThreadPool::defaultThreads();
        const uint32_t shards_flag = parseJobsArg(args, "shards");
        const uint32_t shards = shards_flag > 0
                                    ? shards_flag
                                    : static_cast<uint32_t>(jobs);
        const int reps = quick ? 1 : 3;

        sys::ModelConfig model = sys::ModelConfig::paperDefault();
        model.trace.num_tables =
            static_cast<size_t>(args.getInt("tables"));
        model.trace.rows_per_table =
            static_cast<uint64_t>(args.getInt("rows"));
        model.trace.batch_size =
            static_cast<size_t>(args.getInt("batch"));
        uint64_t batches = static_cast<uint64_t>(args.getInt("batches"));
        if (quick) {
            model.trace.rows_per_table =
                std::min<uint64_t>(model.trace.rows_per_table, 100'000);
            model.trace.batch_size =
                std::min<size_t>(model.trace.batch_size, 512);
            batches = std::min<uint64_t>(batches, 8);
        }

        std::cout << "perf_simcore: " << model.trace.num_tables
                  << " tables x " << model.trace.rows_per_table
                  << " rows, batch " << model.trace.batch_size << ", "
                  << batches << " batches, pool width " << jobs
                  << ", shard width " << shards << "\n\n";

        std::vector<BenchResult> results;
        results.push_back(
            benchTraceGeneration(model, batches, jobs, reps));
        for (auto &result :
             benchWorkloadGen(model, batches, jobs, reps))
            results.push_back(std::move(result));
        results.push_back(benchTraceCache(model, batches, jobs, reps));
        for (auto &result :
             benchPlanning(model, batches, jobs, shards, reps))
            results.push_back(std::move(result));
        for (auto &result : benchHitMapProbe(quick, reps))
            results.push_back(std::move(result));
        results.push_back(
            benchRunnerSweep(model, quick ? 3 : 5, jobs, reps));

        metrics::TablePrinter table({"bench", "serial_s", "parallel_s",
                                     "speedup", "throughput", "unit"});
        for (const auto &r : results) {
            table.addRow({r.name,
                          metrics::TablePrinter::num(r.serial_s, 3),
                          metrics::TablePrinter::num(r.parallel_s, 3),
                          metrics::TablePrinter::num(r.speedup(), 2) + "x",
                          metrics::TablePrinter::num(r.throughput(), 0),
                          r.unit});
        }
        table.print(std::cout);

        writeJson(args.getString("out"), results, model, jobs, shards,
                  quick);
        std::cout << "\nwrote " << args.getString("out") << "\n";
    } catch (const FatalError &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }
    return 0;
}
