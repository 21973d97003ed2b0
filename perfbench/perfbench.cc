/**
 * @file
 * perfbench: end-to-end and per-layer host-time benchmark of the
 * simulator at the paper's default geometry (8 tables x 10M rows,
 * dim 128, batch 2048, 20 lookups).
 *
 *   perfbench --workload train_paper --seed 42 --seconds 25 --trace 0
 *
 * Every run first checks that the build is an optimised Release build
 * and refuses to report otherwise. An untimed warm-up run fills the
 * trace cache, the page cache and the worker pool; then:
 *
 *  --trace 0  repeats the user's run (ExperimentRunner construction +
 *             runAll + teardown) until --seconds have elapsed and
 *             reports the medians of the end-to-end metrics;
 *  --trace 1  spends a third of --seconds on untimed-layer repeats
 *             (the overhead baseline) and the rest on traced passes
 *             that call each layer's public entry point from here,
 *             one span per call, and reports the per-layer metrics.
 *
 * Both modes end with at least one traced pass, because the traced
 * pass is also where the correctness checks run: a ScratchPipe
 * controller replica re-plans every batch and checks the always-hit
 * guarantee, hit/miss and fill/eviction conservation, and that its
 * hit ratio equals the system's RunResult::hit_rate exactly. Each
 * spec run counts as one attempted operation; it fails on a spec
 * error, a result digest that differs from the first run's, or a
 * failed check. The last stdout line is the JSON result record.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/probe_kernel.h"
#include "common/args.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "data/dataset.h"
#include "data/locality.h"
#include "data/trace_store.h"
#include "data/workload.h"
#include "metrics/percentile.h"
#include "sim/hardware_config.h"
#include "sim/pipeline_solver.h"
#include "sys/batch_stats.h"
#include "sys/experiment.h"
#include "sys/registry.h"
#include "sys/scratchpipe_sys.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace sp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Workloads -----------------------------------------------------

/** One named benchmark workload: a trace shape plus a spec sweep. */
struct Workload
{
    const char *name;
    const char *locality;
    /** data::WorkloadSpec text ("" = stationary). */
    const char *shaping;
    std::vector<std::string> specs;
    /** Serve the trace from the content-addressed cache (warm mmap)
     *  or regenerate it in every run. */
    bool trace_cache;
    /** spsim --jobs: pool workers and runAll width. */
    uint32_t jobs;
};

// Why each workload exists is recorded in perfbench/README.md.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"train_paper", "medium", "", {"scratchpipe"}, true, 1},
        {"sweep_lowloc",
         "low",
         "churn_k=1024,churn_period=4,burst_frac=0.3,burst_period=8,"
         "burst_len=2,burst_ranks=512",
         {"hybrid", "static:cache=0.02", "strawman:cache=0.02,warm=0",
          "scratchpipe:cache=0.02,policy=lfu,warm=0", "multigpu"},
         false,
         2},
        {"serve_lru", "medium", "", {"serve:refresh=lru,rate=20000"}, true,
         1},
    };
    return all;
}

/** spsim's default run length (--iterations 10 --warmup 5). */
constexpr uint64_t kIterations = 10;
constexpr uint64_t kWarmup = 5;
/** ExperimentRunner's future-window look-ahead beyond warmup+iters. */
constexpr uint64_t kLookahead = 2;
/** Fewest timed repeats a run reports a median over. */
constexpr size_t kMinRepeats = 3;

struct Setup
{
    const Workload *workload = nullptr;
    sys::ModelConfig model;
    sim::HardwareConfig hw;
    sys::ExperimentOptions options;
    std::vector<sys::SystemSpec> specs;
};

Setup
makeSetup(const Workload &workload, uint64_t seed)
{
    Setup s;
    s.workload = &workload;
    s.model = sys::ModelConfig::paperDefault();
    s.model.trace.num_tables = 8;
    s.model.trace.rows_per_table = 10'000'000;
    s.model.trace.lookups_per_table = 20;
    s.model.trace.batch_size = 2048;
    s.model.embedding_dim = 128;
    s.model.trace.locality = data::localityFromName(workload.locality);
    s.model.trace.seed = seed;
    s.model.trace.workload = data::WorkloadSpec::parse(workload.shaping).config;
    s.hw = sim::HardwareConfig::paperTestbed();
    s.options.iterations = kIterations;
    s.options.warmup = kWarmup;
    s.options.jobs = workload.jobs;
    for (const auto &text : workload.specs)
        s.specs.push_back(sys::SystemSpec::parse(text));
    return s;
}

/** Sparse IDs one spec simulates: every batch it plans (training) or
 *  every request it serves (160 IDs each at paper geometry). */
uint64_t
simulatedIds(const Setup &s)
{
    return static_cast<uint64_t>(s.specs.size()) * (kWarmup + kIterations) *
           s.model.trace.idsPerBatch();
}

// ---- Small helpers -------------------------------------------------

/** FNV-1a 64 of `text`, as 16 hex digits. */
std::string
digestOf(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
numberList(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + jsonNumber(values[i]);
    return out + "]";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** CPU ticks consumed so far by each thread of this process. */
std::map<int, long long>
threadCpuTicks()
{
    std::map<int, long long> ticks;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        std::ifstream in(entry.path() / "stat");
        std::string stat;
        std::getline(in, stat);
        const size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        // Fields after "pid (comm)": state is field 3, utime 14, stime 15.
        std::istringstream fields(stat.substr(close + 2));
        std::string skip;
        for (int f = 3; f < 14; ++f)
            fields >> skip;
        long long utime = 0, stime = 0;
        fields >> utime >> stime;
        ticks[std::stoi(entry.path().filename().string())] = utime + stime;
    }
    return ticks;
}

// ---- Untraced end-to-end repeat ------------------------------------

struct Repeat
{
    double wall_s = 0.0;
    double setup_s = 0.0;
    double run_s = 0.0;
    double cpu_s = 0.0;
    std::vector<sys::RunResult> results;
};

/** One user-visible run: runner construction + runAll + teardown. */
Repeat
runOnce(const Setup &s)
{
    Repeat rep;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    {
        const sys::ExperimentRunner runner(s.model, s.hw, s.options);
        rep.setup_s = secondsSince(t0);
        const auto t1 = Clock::now();
        rep.results = runner.runAll(s.specs);
        rep.run_s = secondsSince(t1);
    }
    rep.wall_s = secondsSince(t0);
    rep.cpu_s = cpuSeconds() - cpu0;
    return rep;
}

// ---- Tracing -------------------------------------------------------

/** One timed call into a layer. */
struct Span
{
    std::string name;
    /** Spec or table the call served ("" when not applicable). */
    std::string detail;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, -1 for a root span. */
    int parent = -1;
    /** Traced pass the span belongs to. */
    int run = 0;

    double seconds() const { return end - start; }
};

/** In-memory span log, written out once when the benchmark ends.
 *  Pool tasks record into it, so it is guarded by a mutex. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int
    open(const std::string &name, const std::string &detail, int parent,
         int run)
    {
        const double now = secondsSince(origin_);
        const std::lock_guard lock(mutex_);
        spans_.push_back({name, detail, now, now, parent, run});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int index)
    {
        const double now = secondsSince(origin_);
        const std::lock_guard lock(mutex_);
        spans_[static_cast<size_t>(index)].end = now;
    }

    /** Sum of the durations of `name` spans in pass `run`. */
    double
    total(const std::string &name, int run) const
    {
        double sum = 0.0;
        for (const auto &span : spans_) {
            if (span.run == run && span.name == name)
                sum += span.seconds();
        }
        return sum;
    }

    /** Durations of every `name` span across all passes. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const auto &span : spans_) {
            if (span.name == name)
                out.push_back(span.seconds());
        }
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const auto &span = spans_[i];
            out << "{\"id\":" << i << ",\"name\":" << jsonString(span.name)
                << ",\"detail\":" << jsonString(span.detail)
                << ",\"start\":" << jsonNumber(span.start)
                << ",\"end\":" << jsonNumber(span.end)
                << ",\"parent\":" << span.parent << ",\"run\":" << span.run
                << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

  private:
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, const std::string &detail,
          int parent, int run)
        : tracer_(tracer), index_(tracer.open(name, detail, parent, run))
    {
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int index() const { return index_; }

  private:
    Tracer &tracer_;
    int index_;
};

/** Work counters of one controller replica over one spec. */
struct ReplicaCounts
{
    uint64_t slots = 0;
    uint64_t planned_ids = 0;
    uint64_t measured_hits = 0;
    uint64_t measured_ids = 0;
    uint64_t fills = 0;
    uint64_t evictions = 0;
    /** Wall of each batch's per-table plan fan-out, summed. */
    double fanout_wall_s = 0.0;
    std::vector<std::string> failures;
};

/**
 * Re-run the [Plan] stage of `system` outside it: controllers
 * configured exactly as ScratchPipeSystem::simulate configures its own
 * (slotsPerTable(), options(), per-table policy seed 0x5eed + t), each
 * batch's tables fanned out over the global pool as PlanFanout does.
 * Checks the controller laws on every plan.
 */
ReplicaCounts
replicatePlans(const sys::ScratchPipeSystem &system, const Setup &s,
               const data::TraceDataset &dataset, Tracer &tracer,
               int parent, int run)
{
    const auto &options = system.options();
    const size_t num_tables = s.model.trace.num_tables;
    core::ControllerConfig cc;
    cc.num_slots = system.slotsPerTable();
    cc.dim = s.model.embedding_dim;
    cc.past_window = options.pipelined ? options.past_window : 0;
    cc.future_window = options.pipelined ? options.future_window : 0;
    cc.policy = options.policy;
    cc.backing = cache::SlotArray::Backing::Phantom;
    cc.warm_start = options.warm_start;
    cc.plan_shards =
        options.plan_shards == 0
            ? static_cast<uint32_t>(common::ThreadPool::global().size())
            : options.plan_shards;
    cc.probe = options.probe;

    ReplicaCounts counts;
    std::vector<core::ScratchPipeController> controllers;
    controllers.reserve(num_tables);
    for (size_t t = 0; t < num_tables; ++t) {
        cc.policy_seed = 0x5eed + t;
        const Scope span(tracer, "core.controller_setup",
                         "table " + std::to_string(t), parent, run);
        controllers.emplace_back(cc);
    }
    counts.slots = static_cast<uint64_t>(cc.num_slots) * num_tables;

    const auto occupied = [&](size_t t) {
        uint64_t n = 0;
        for (uint32_t slot = 0; slot < cc.num_slots; ++slot)
            n += controllers[t].keyOfSlot(slot) !=
                 core::ScratchPipeController::kNoKey;
        return n;
    };
    std::vector<uint64_t> occupied_before(num_tables);
    for (size_t t = 0; t < num_tables; ++t)
        occupied_before[t] = occupied(t);

    struct TableTally
    {
        uint64_t hits = 0, ids = 0, fills = 0, evictions = 0;
        uint64_t resident_misses = 0, count_errors = 0, evict_errors = 0;
    };
    std::vector<TableTally> total(num_tables);
    std::vector<TableTally> batch(num_tables);
    std::vector<std::vector<std::span<const uint64_t>>> futures(num_tables);

    for (uint64_t i = 0; i < kWarmup + kIterations; ++i) {
        // parallelForAsync + wait, as PlanFanout::run does: unlike
        // parallelFor it also fans out on a one-worker pool.
        const auto fan_start = Clock::now();
        auto fanout = common::ThreadPool::global().parallelForAsync(
            num_tables, [&](size_t t) {
                auto &future = futures[t];
                future.clear();
                for (uint32_t d = 1; d <= cc.future_window; ++d) {
                    const auto *next = dataset.lookAhead(i, d);
                    if (next == nullptr)
                        break;
                    future.emplace_back(next->ids(t));
                }
                const auto ids = dataset.batch(i).ids(t);
                const core::PlanResult *plan = nullptr;
                {
                    const Scope span(tracer, "core.plan",
                                     "batch " + std::to_string(i) + " table " +
                                         std::to_string(t),
                                     parent, run);
                    plan = &controllers[t].plan(ids, future);
                }
                TableTally tally;
                tally.hits = plan->hits;
                tally.ids = ids.size();
                tally.fills = plan->fills.size();
                tally.evictions = plan->evictions.size();
                tally.count_errors = plan->hits + plan->misses != ids.size() ||
                                     plan->misses != plan->fills.size();
                tally.evict_errors =
                    plan->evictions.size() > plan->fills.size();
                batch[t] = tally;
            });
        fanout.wait();
        counts.fanout_wall_s += secondsSince(fan_start);
        // The always-hit check, outside the timed fan-out.
        common::ThreadPool::global().parallelFor(num_tables, [&](size_t t) {
            for (const uint64_t id : dataset.batch(i).ids(t))
                batch[t].resident_misses += !controllers[t].isResident(id);
        });
        for (size_t t = 0; t < num_tables; ++t) {
            const auto &b = batch[t];
            auto &sum = total[t];
            sum.fills += b.fills;
            sum.evictions += b.evictions;
            sum.resident_misses += b.resident_misses;
            sum.count_errors += b.count_errors;
            sum.evict_errors += b.evict_errors;
            counts.planned_ids += b.ids;
            if (i >= kWarmup) {
                counts.measured_hits += b.hits;
                counts.measured_ids += b.ids;
            }
        }
    }

    for (size_t t = 0; t < num_tables; ++t) {
        const auto &sum = total[t];
        counts.fills += sum.fills;
        counts.evictions += sum.evictions;
        const std::string where = "table " + std::to_string(t) + ": ";
        if (sum.resident_misses > 0)
            counts.failures.push_back(
                where + std::to_string(sum.resident_misses) +
                " current-batch IDs not resident after plan()");
        if (sum.count_errors > 0)
            counts.failures.push_back(
                where + "hits + misses != IDs planned (or misses != "
                        "fills) in " +
                std::to_string(sum.count_errors) + " plans");
        if (sum.evict_errors > 0)
            counts.failures.push_back(
                where + "evictions > fills in " +
                std::to_string(sum.evict_errors) + " plans");
        const uint64_t after = occupied(t);
        if (occupied_before[t] + sum.fills - sum.evictions != after)
            counts.failures.push_back(
                where + "fills - evictions = " +
                std::to_string(sum.fills - sum.evictions) +
                " but occupied slots went " +
                std::to_string(occupied_before[t]) + " -> " +
                std::to_string(after));
    }
    return counts;
}

/** Layer totals of one traced pass. */
struct PassLayers
{
    double wall_s = 0.0; // acquire + stats + simulate + solve, spans on
    double acquire_s = 0.0;
    double stats_s = 0.0;
    double simulate_s = 0.0;
    double train_simulate_s = 0.0;
    double serve_simulate_s = 0.0;
    double solve_s = 0.0;
    double controller_setup_s = 0.0;
    double plan_s = 0.0;
    double plan_fanout_s = 0.0;
    uint64_t controller_slots = 0;
    uint64_t planned_ids = 0;
    uint64_t measured_hits = 0;
    uint64_t measured_ids = 0;
    uint64_t fills = 0;
    uint64_t evictions = 0;
    uint64_t serve_requests = 0;
    std::map<std::string, double> simulate_by_family;
    std::vector<sys::RunResult> results;
};

/**
 * One traced pass: the runner's work re-done from outside through each
 * layer's public entry point, one span per call, then the controller
 * replicas. Failures found by the checks land in `failures` (one list
 * per spec).
 */
PassLayers
tracedPass(const Setup &s, Tracer &tracer, int run,
           std::vector<std::vector<std::string>> &failures)
{
    PassLayers layers;
    const uint64_t batches = kWarmup + kIterations + kLookahead;
    std::optional<data::TraceDataset> dataset;
    std::optional<sys::BatchStats> stats;
    const auto start = Clock::now();
    const int root = tracer.open("bench.pass", s.workload->name, -1, run);
    {
        const Scope span(tracer, "data.trace_acquire",
                         s.workload->trace_cache ? "TraceStore::acquire"
                                                 : "TraceDataset",
                         root, run);
        if (data::TraceStore::cacheEnabled())
            dataset.emplace(data::TraceStore().acquire(s.model.trace, batches));
        else
            dataset.emplace(s.model.trace, batches);
    }
    {
        const Scope span(tracer, "sys.batch_stats", "", root, run);
        stats.emplace(*dataset, kWarmup + kIterations);
    }

    // Same fan-out as ExperimentRunner::runAll: at most `jobs` specs in
    // flight (caller + jobs-1 helpers).
    layers.results.resize(s.specs.size());
    std::vector<double> simulate_s(s.specs.size());
    std::vector<std::unique_ptr<sys::System>> systems(s.specs.size());
    const auto simulateOne = [&](size_t k) {
        const auto &spec = s.specs[k];
        systems[k] = sys::Registry::build(spec, s.model, s.hw);
        const auto t0 = Clock::now();
        {
            const Scope span(tracer, "sys.simulate", spec.summary(), root,
                             run);
            try {
                layers.results[k] = systems[k]->simulate(
                    *dataset, *stats, kIterations, kWarmup);
            } catch (const PanicError &) {
                throw;
            } catch (const std::exception &error) {
                layers.results[k].system_name = spec.summary();
                layers.results[k].error = error.what();
            }
        }
        simulate_s[k] = secondsSince(t0);
    };
    if (s.specs.size() <= 1 || s.options.jobs <= 1) {
        for (size_t k = 0; k < s.specs.size(); ++k)
            simulateOne(k);
    } else {
        common::ThreadPool::global().parallelFor(s.specs.size(), simulateOne,
                                                 s.options.jobs - 1);
    }

    // The steady-state solver, called on each result's stage split
    // (one stage per breakdown entry, its latency as fixed overhead).
    for (size_t k = 0; k < s.specs.size(); ++k) {
        std::vector<sim::StageDemand> stages;
        for (const auto &stage : layers.results[k].breakdown.stages())
            stages.push_back({stage.name, {}, stage.seconds});
        if (stages.empty())
            continue;
        const Scope span(tracer, "sim.solve", s.specs[k].summary(), root,
                         run);
        const auto solution = sim::solvePipeline(stages);
        if (!(solution.cycle_time >= 0.0))
            failures[k].push_back("solvePipeline gave a negative cycle");
    }
    tracer.close(root);
    layers.wall_s = secondsSince(start);

    for (size_t k = 0; k < s.specs.size(); ++k) {
        const auto &spec = s.specs[k];
        const auto &result = layers.results[k];
        layers.simulate_s += simulate_s[k];
        layers.simulate_by_family[spec.name] += simulate_s[k];
        if (result.failed())
            continue; // already counted by the digest check
        if (result.serving.enabled) {
            layers.serve_simulate_s += simulate_s[k];
            layers.serve_requests += (kWarmup + kIterations) *
                                     s.model.trace.batch_size;
            const uint64_t expected =
                kIterations * s.model.trace.batch_size;
            if (result.serving.requests + result.serving.dropped != expected)
                failures[k].push_back(
                    "served + dropped = " +
                    std::to_string(result.serving.requests +
                                   result.serving.dropped) +
                    ", expected iterations x batch = " +
                    std::to_string(expected));
            continue;
        }
        layers.train_simulate_s += simulate_s[k];

        const auto *scratchpipe =
            dynamic_cast<const sys::ScratchPipeSystem *>(systems[k].get());
        if (scratchpipe == nullptr)
            continue;
        const Scope span(tracer, "core.replica", spec.summary(), -1, run);
        const ReplicaCounts counts = replicatePlans(
            *scratchpipe, s, *dataset, tracer, span.index(), run);
        for (const auto &failure : counts.failures)
            failures[k].push_back(failure);
        const double replica_hit_rate =
            counts.measured_ids == 0
                ? 0.0
                : static_cast<double>(counts.measured_hits) /
                      static_cast<double>(counts.measured_ids);
        if (replica_hit_rate != result.hit_rate)
            failures[k].push_back(
                "replica hit ratio " + jsonNumber(replica_hit_rate) +
                " != RunResult.hit_rate " + jsonNumber(result.hit_rate));
        layers.controller_slots += counts.slots;
        layers.planned_ids += counts.planned_ids;
        layers.measured_hits += counts.measured_hits;
        layers.measured_ids += counts.measured_ids;
        layers.fills += counts.fills;
        layers.evictions += counts.evictions;
        layers.plan_fanout_s += counts.fanout_wall_s;
    }
    layers.acquire_s = tracer.total("data.trace_acquire", run);
    layers.stats_s = tracer.total("sys.batch_stats", run);
    layers.solve_s = tracer.total("sim.solve", run);
    layers.controller_setup_s = tracer.total("core.controller_setup", run);
    layers.plan_s = tracer.total("core.plan", run);
    return layers;
}

// ---- Output --------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &m = metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

struct Args
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 20.0;
    int64_t trace = 0;
    std::string spans_path;
    std::string commit;
    bool prepare = false;
};

int
benchMain(const Args &args)
{
    const Workload *workload = nullptr;
    for (const auto &w : workloads()) {
        if (args.workload == w.name)
            workload = &w;
    }
    fatalIf(workload == nullptr, "unknown workload '", args.workload,
            "' (train_paper|sweep_lowloc|serve_lru)");

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    bool optimised = build_type == "Release";
#ifndef NDEBUG
    optimised = false;
#endif
    if (!optimised) {
        std::cerr << "perfbench: refusing to report from a non-Release "
                     "build (build type '"
                  << build_type << "')\n";
        return 2;
    }

    common::ThreadPool::setGlobalThreads(workload->jobs);
    data::TraceStore::setCacheEnabled(workload->trace_cache);
    const Setup s = makeSetup(*workload, args.seed);

    if (args.prepare) {
        // Publish the trace-cache entry so measuring runs start warm.
        if (workload->trace_cache)
            data::TraceStore().acquire(s.model.trace,
                                       kWarmup + kIterations + kLookahead);
        return 0;
    }

    // Untimed warm-up: page cache, allocator, pool threads.
    const Repeat warm = runOnce(s);
    std::vector<std::string> spec_digests;
    for (const auto &result : warm.results)
        spec_digests.push_back(digestOf(result.toJson()));
    const std::string run_digest = digestOf(sys::toJson(warm.results));

    // One attempted operation per spec run; `why` lists what failed.
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failure_notes;
    const auto tally = [&](size_t k, const std::vector<std::string> &why,
                           const char *where) {
        ++attempted;
        failed += !why.empty();
        for (const auto &note : why)
            failure_notes.push_back(std::string(where) + " " +
                                    s.specs[k].summary() + ": " + note);
    };
    const auto resultFailures = [&](const sys::RunResult &result, size_t k) {
        std::vector<std::string> why;
        if (result.failed())
            why.push_back("spec failed: " + result.error);
        else if (digestOf(result.toJson()) != spec_digests[k])
            why.push_back("result digest differs from the first run");
        return why;
    };

    // Timed untraced repeats. Tracing runs spend a third of the time
    // here (the overhead baseline) and the rest on traced passes.
    const double untraced_budget =
        args.trace == 1 ? args.seconds / 3.0 : args.seconds;
    const auto ticks_before = threadCpuTicks();
    std::vector<Repeat> repeats;
    const auto timed_start = Clock::now();
    while (repeats.size() < kMinRepeats ||
           secondsSince(timed_start) < untraced_budget) {
        repeats.push_back(runOnce(s));
        for (size_t k = 0; k < s.specs.size(); ++k)
            tally(k, resultFailures(repeats.back().results[k], k),
                  "untraced run");
    }
    const auto ticks_after = threadCpuTicks();
    // Process high-water mark over the warm-up and timed runs, taken
    // before the checks allocate their controller replicas.
    const double peak_rss = peakRssMb();
    uint64_t busy_threads = 0;
    for (const auto &[tid, ticks] : ticks_after) {
        const auto before = ticks_before.find(tid);
        busy_threads +=
            ticks > (before == ticks_before.end() ? 0 : before->second);
    }

    // Traced passes: correctness checks always, layer spans reported
    // with --trace 1.
    Tracer tracer;
    std::vector<PassLayers> passes;
    const auto traced_start = Clock::now();
    const double traced_budget = args.seconds - untraced_budget;
    do {
        std::vector<std::vector<std::string>> failures(s.specs.size());
        passes.push_back(tracedPass(s, tracer,
                                    static_cast<int>(passes.size()),
                                    failures));
        for (size_t k = 0; k < s.specs.size(); ++k) {
            auto why = resultFailures(passes.back().results[k], k);
            why.insert(why.end(), failures[k].begin(), failures[k].end());
            tally(k, why, "traced pass");
        }
    } while (args.trace == 1 && (passes.size() < 2 ||
                                 secondsSince(traced_start) < traced_budget));
    if (!args.spans_path.empty())
        tracer.write(args.spans_path);

    // ---- Report ----------------------------------------------------
    const auto collect = [&](auto field) {
        std::vector<double> values;
        for (const auto &rep : repeats)
            values.push_back(field(rep));
        return values;
    };
    const auto layer = [&](auto field) {
        std::vector<double> values;
        for (const auto &pass : passes)
            values.push_back(field(pass));
        return median(values);
    };
    const double ids = static_cast<double>(simulatedIds(s));
    const auto walls = collect([](const Repeat &r) { return r.wall_s; });
    const double wall_s = median(walls);
    const double traced_wall_s =
        layer([](const PassLayers &p) { return p.wall_s; });
    const PassLayers &first = passes.front();

    std::cout << "workload " << workload->name << "  seed " << args.seed
              << "  timed runs " << repeats.size() << "  traced passes "
              << passes.size() << "\n";
    for (const auto &result : first.results) {
        std::cout << "  " << result.system_name
                  << "  s/iter " << result.seconds_per_iteration
                  << "  hit_rate " << result.hit_rate;
        if (result.serving.enabled)
            std::cout << "  achieved_rate " << result.serving.achieved_rate
                      << " req/s  mean_latency " << result.serving.mean
                      << " s  mean_queue_depth "
                      << result.serving.mean_queue_depth;
        std::cout << "\n";
    }
    for (const auto &[family, seconds] : first.simulate_by_family)
        std::cout << "  simulate " << family << " " << seconds << " s\n";
    for (const auto &note : failure_notes)
        std::cout << "FAILED " << note << "\n";

    const double failed_frac =
        attempted == 0 ? 1.0
                       : static_cast<double>(failed) /
                             static_cast<double>(attempted);
    std::string results_json = "[";
    for (size_t k = 0; k < first.results.size(); ++k) {
        const auto &r = first.results[k];
        results_json += (k ? "," : "") + std::string("{\"spec\":") +
                        jsonString(s.specs[k].summary()) +
                        ",\"digest\":" + jsonString(spec_digests[k]) +
                        ",\"seconds_per_iteration\":" +
                        jsonNumber(r.seconds_per_iteration) +
                        ",\"hit_rate\":" + jsonNumber(r.hit_rate);
        if (r.serving.enabled)
            results_json +=
                ",\"achieved_rate\":" + jsonNumber(r.serving.achieved_rate) +
                ",\"mean_latency_s\":" + jsonNumber(r.serving.mean) +
                ",\"mean_queue_depth\":" +
                jsonNumber(r.serving.mean_queue_depth);
        results_json += "}";
    }
    results_json += "]";
    std::cout << "{\"record\": {\"workload\": " << jsonString(workload->name)
              << ", \"seed\": " << args.seed
              << ", \"result_digest\": " << jsonString(run_digest)
              << ", \"results\": " << results_json
              << ", \"timed_runs\": " << repeats.size()
              << ", \"wall_s_runs\": " << numberList(walls)
              << ", \"traced_passes\": " << passes.size()
              << ", \"failed_frac\": " << jsonNumber(failed_frac)
              << ", \"commit\": " << jsonString(args.commit)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu_model\": " << jsonString(cpuModel())
              << ", \"build_type\": " << jsonString(build_type)
              << ", \"probe_kernel\": "
              << jsonString(
                     cache::selectProbeKernel(cache::ProbeMode::Auto).name)
              << ", \"jobs\": " << workload->jobs
              << ", \"traced_wall_s\": " << jsonNumber(traced_wall_s)
              << ", \"untraced_wall_s\": " << jsonNumber(wall_s) << "}}\n";

    std::vector<Metric> metrics;
    if (args.trace == 0) {
        metrics = {
            {"wall_s", wall_s, "s"},
            {"setup_s",
             median(collect([](const Repeat &r) { return r.setup_s; })), "s"},
            {"sim_ids_per_s",
             median(collect([&](const Repeat &r) { return ids / r.run_s; })),
             "IDs/s"},
            {"cpu_s", median(collect([](const Repeat &r) { return r.cpu_s; })),
             "s"},
            {"peak_rss_mb", peak_rss, "MB"},
        };
    } else {
        const auto ratio = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };
        const double trace_ids = static_cast<double>(
            (kWarmup + kIterations + kLookahead) * s.model.trace.idsPerBatch());
        const double stats_ids = static_cast<double>(
            (kWarmup + kIterations) * s.model.trace.idsPerBatch());
        sp::metrics::PercentileReservoir plan_ms;
        for (const double seconds : tracer.durations("core.plan"))
            plan_ms.add(seconds * 1e3);
        const auto planMs = [&](double q) {
            return plan_ms.count() == 0 ? 0.0 : plan_ms.percentile(q);
        };
        const double acquire_s =
            layer([](const PassLayers &p) { return p.acquire_s; });
        const double stats_s =
            layer([](const PassLayers &p) { return p.stats_s; });
        const double plan_s =
            layer([](const PassLayers &p) { return p.plan_s; });
        const double serve_s =
            layer([](const PassLayers &p) { return p.serve_simulate_s; });
        double tier_hits = 0.0, batches = 0.0, fill = 0.0;
        for (const auto &result : first.results) {
            if (result.serving.enabled) {
                tier_hits = result.hit_rate;
                batches = static_cast<double>(result.serving.batches);
                fill = result.serving.mean_batch_fill;
            }
        }
        metrics = {
            {"data.trace_acquire_s", acquire_s, "s"},
            {"data.trace_ids_per_s", ratio(trace_ids, acquire_s), "IDs/s"},
            {"sys.batch_stats_s", stats_s, "s"},
            {"sys.batch_stats_ids_per_s", ratio(stats_ids, stats_s), "IDs/s"},
            {"core.controller_setup_s",
             layer([](const PassLayers &p) { return p.controller_setup_s; }),
             "s"},
            {"core.controller_slots",
             static_cast<double>(first.controller_slots), "count"},
            {"core.plan_s", plan_s, "s"},
            {"core.plan_ids_per_s",
             ratio(static_cast<double>(first.planned_ids), plan_s), "IDs/s"},
            {"core.plan_call_ms.p50", planMs(0.50), "ms"},
            {"core.plan_call_ms.p90", planMs(0.90), "ms"},
            {"core.hit_ratio",
             ratio(static_cast<double>(first.measured_hits),
                   static_cast<double>(first.measured_ids)),
             "ratio"},
            {"core.fills", static_cast<double>(first.fills), "count"},
            {"core.evictions", static_cast<double>(first.evictions), "count"},
            {"sys.simulate_s",
             layer([](const PassLayers &p) { return p.simulate_s; }), "s"},
            {"sys.account_self_s", layer([](const PassLayers &p) {
                 return p.train_simulate_s == 0.0
                            ? 0.0
                            : p.train_simulate_s - p.controller_setup_s -
                                  p.plan_fanout_s;
             }),
             "s"},
            {"sim.solve_s", layer([](const PassLayers &p) { return p.solve_s; }),
             "s"},
            {"sys.serve_simulate_s", serve_s, "s"},
            {"sys.serve_requests_per_s",
             ratio(static_cast<double>(first.serve_requests), serve_s),
             "req/s"},
            {"serve.tier_hit_ratio", tier_hits, "ratio"},
            {"serve.batches", batches, "count"},
            {"serve.mean_batch_fill", fill, "requests"},
            {"common.threads_peak", static_cast<double>(busy_threads),
             "count"},
            {"bench.trace_overhead_s", traced_wall_s - wall_s, "s"},
        };
    }
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("perfbench: end-to-end and per-layer host-time "
                     "benchmark of the simulator");
    parser.addString("workload", "", "train_paper|sweep_lowloc|serve_lru");
    parser.addInt("seed", 42, "trace seed");
    parser.addDouble("seconds", 20.0, "seconds of measurement");
    parser.addInt("trace", 0, "1 = report the per-layer metrics");
    parser.addString("spans", "", "write the traced spans here (JSON)");
    parser.addString("commit", "unknown", "source id for the record");
    parser.addBool("prepare",
                   "only publish the workload's trace-cache entry");
    try {
        if (!parser.parse(argc, argv)) {
            std::cout << parser.usage();
            return 0;
        }
        Args args;
        args.workload = parser.getString("workload");
        args.seed = static_cast<uint64_t>(parser.getInt("seed"));
        args.seconds = parser.getDouble("seconds");
        args.trace = parser.getInt("trace");
        args.spans_path = parser.getString("spans");
        args.commit = parser.getString("commit");
        args.prepare = parser.getBool("prepare");
        fatalIf(args.trace != 0 && args.trace != 1,
                "--trace expects 0 or 1");
        fatalIf(!(args.seconds > 0.0 && args.seconds <= 120.0),
                "--seconds expects a value in (0, 120]");
        return benchMain(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
