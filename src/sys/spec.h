/**
 * @file
 * Declarative description of one system design point to evaluate.
 *
 * A SystemSpec names a registered system plus every tunable the legacy
 * positional factory could not express: the cache fraction where it
 * applies, and the full ScratchPipeOptions surface (policy, windows,
 * warm start, capacity bound) for the scratchpad systems. Specs parse
 * from compact strings so CLI flags, bench sweeps and tests share one
 * grammar:
 *
 *   "hybrid"
 *   "static:cache=0.02"
 *   "scratchpipe:cache=0.05,policy=lfu,past=4,future=2,warm=0"
 *   "scratchpipe:shard=8"             (engine knob: mark-pass shards
 *                                      -- bit-identical results, perf
 *                                      only)
 *   "scratchpipe:probe=scalar"        (pin the batched Hit-Map probe
 *                                      kernel: auto|scalar|native;
 *                                      bit-identical, perf only)
 *   "serve:rate=500000,arrival=bursty,batch_max=16,budget_us=300,
 *    refresh=lru"                     (online serving: open-loop
 *                                      arrivals, admission batching,
 *                                      two-tier cache; see
 *                                      sys/serving.h)
 *
 * validate() is registry-aware: setting `cache=` on a system that has
 * no cache (hybrid, multigpu) is a hard error, not a silent no-op --
 * the exact footgun the positional factory shipped with. Serving keys
 * on a training system (and vice versa for scratchpad keys on serve)
 * are rejected the same way.
 */

#ifndef SP_SYS_SPEC_H
#define SP_SYS_SPEC_H

#include <optional>
#include <string>

#include "sys/scratchpipe_sys.h"
#include "sys/serving.h"

namespace sp::sys
{

/** Parsed, validated description of one system to build and run. */
struct SystemSpec
{
    /** Registry key ("hybrid", "static", "strawman", "scratchpipe",
     *  "multigpu", or any later-registered system). */
    std::string name = "scratchpipe";

    /** GPU cache/scratchpad capacity as a fraction of each table.
     *  Unset means the system's default; setting it for a cache-less
     *  system is a validation error. */
    std::optional<double> cache_fraction;

    /** Scratchpad tunables for the scratchpipe/strawman systems.
     *  `pipelined` is ignored (the name decides it); `cache_fraction`
     *  inside is superseded by the field above when that is set. */
    ScratchPipeOptions scratchpipe;

    /** True when any scratchpad-only key (policy/past/future/warm/
     *  bound/shard/probe) was explicitly given; lets
     *  validate() reject them on systems that have no scratchpad. */
    bool scratchpipe_tuned = false;

    /** Serving tunables for the serve system family. `cache_fraction`
     *  inside is superseded by the field above when that is set. */
    ServeOptions serve;

    /** True when any serving-only key (arrival/rate/batch_max/
     *  budget_us/refresh/burst_x/burst_on_us/burst_off_us) was
     *  explicitly given; lets validate() reject them on systems that
     *  do not serve requests. */
    bool serve_tuned = false;

    /**
     * Parse "name[:key=value,...]". Keys: cache, policy, past, future,
     * warm, bound, shard, probe, and the serving keys
     * arrival, rate, batch_max, budget_us, refresh, burst_x,
     * burst_on_us, burst_off_us. fatal() on unknown keys or malformed
     * values; the system name itself is checked by
     * validate()/Registry::build.
     */
    static SystemSpec parse(const std::string &text);

    /** Convenience: `name` with `cache=fraction` (sweep helper). */
    static SystemSpec withCache(const std::string &name, double fraction);

    /** Canonical spec string (round-trips through parse()). */
    std::string summary() const;

    /**
     * Registry-aware validation: the name must be registered, cache
     * and scratchpad keys must be meaningful for that system, and a
     * set cache fraction must lie in (0, 1]. fatal() with an
     * actionable message (including nearest-name suggestions for
     * typos) otherwise.
     */
    void validate() const;

    /** The cache fraction to build with (`fallback` when unset). */
    double cacheFractionOr(double fallback) const
    {
        return cache_fraction.value_or(fallback);
    }

    /** ScratchPipeOptions with the spec's cache fraction folded in. */
    ScratchPipeOptions scratchPipeOptions(bool pipelined) const;

    /** ServeOptions with the spec's cache fraction folded in. */
    ServeOptions serveOptions() const;
};

} // namespace sp::sys

#endif // SP_SYS_SPEC_H
