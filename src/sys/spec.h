/**
 * @file
 * Declarative description of one system design point to evaluate.
 *
 * A SystemSpec names a registered system plus its tunables: the cache
 * fraction where it applies, the ScratchPipeOptions surface (policy,
 * windows, warm start, capacity bound) for the scratchpad systems and
 * the ServeOptions surface for `serve`. Specs parse from compact
 * strings so CLI flags, bench sweeps and tests share one grammar,
 * `name[:key=value,...]` (common/args.h, KeyValueGrammar):
 *
 *   "hybrid"
 *   "static:cache=0.02"
 *   "scratchpipe:cache=0.05,policy=lfu,past=4,future=2,warm=0"
 *   "serve:rate=500000,arrival=bursty,batch_max=16,refresh=lru"
 *
 * Every key is one row of the key table in spec.cc: its name, its
 * KeyGroup, how it parses and how it prints. The README lists them.
 *
 * validate() is registry-aware: a key whose group the family does not
 * accept is a hard error, not a silent no-op -- `cache=` on hybrid was
 * the exact footgun the positional factory shipped with.
 */

#ifndef SP_SYS_SPEC_H
#define SP_SYS_SPEC_H

#include <optional>
#include <string>

#include "sys/scratchpipe_sys.h"
#include "sys/serving.h"

namespace sp::sys
{

/** The groups of SystemSpec keys. A registry family accepts a set of
 *  them (Registry::Entry::key_groups), as a bit mask. */
enum KeyGroup : unsigned
{
    kCacheKeys = 1u << 0,      ///< cache=
    kScratchpadKeys = 1u << 1, ///< the ScratchPipeOptions keys
    kServeKeys = 1u << 2,      ///< the ServeOptions keys
};

/** Parsed, validated description of one system to build and run. */
struct SystemSpec
{
    /** Registry key ("hybrid", "static", "strawman", "scratchpipe",
     *  "multigpu", "serve", or any later-registered system). */
    std::string name = "scratchpipe";

    /** GPU cache/scratchpad capacity as a fraction of each table.
     *  Unset means the system's default; setting it for a cache-less
     *  system is a validation error. */
    std::optional<double> cache_fraction;

    /** Scratchpad tunables for the scratchpipe/strawman systems.
     *  `pipelined` is ignored (the name decides it); `cache_fraction`
     *  inside is superseded by the field above when that is set. */
    ScratchPipeOptions scratchpipe;

    /** Serving tunables for the serve system family. `cache_fraction`
     *  inside is superseded by the field above when that is set. */
    ServeOptions serve;

    /** KeyGroup bits of the scratchpad and serving keys that were
     *  given (`cache=` is tracked by cache_fraction itself).
     *  summary() prints every key of a given group, and validate()
     *  rejects a group the system does not accept. */
    unsigned tuned_groups = 0;

    /**
     * Parse "name[:key=value,...]". fatal() on unknown keys or
     * malformed values; the system name itself is checked by
     * validate()/Registry::build.
     */
    static SystemSpec parse(const std::string &text);

    /** Convenience: `name` with `cache=fraction` (sweep helper). */
    static SystemSpec withCache(const std::string &name, double fraction);

    /** Canonical spec string (round-trips through parse()). */
    std::string summary() const;

    /**
     * Registry-aware validation: the name must be registered, every
     * given key group must be one the system accepts, and the values
     * must be in range. fatal() with an actionable message (including
     * nearest-name suggestions for typos) otherwise.
     */
    void validate() const;

    /** ScratchPipeOptions with the spec's cache fraction folded in. */
    ScratchPipeOptions scratchPipeOptions(bool pipelined) const;

    /** ServeOptions with the spec's cache fraction folded in. */
    ServeOptions serveOptions() const;
};

} // namespace sp::sys

#endif // SP_SYS_SPEC_H
