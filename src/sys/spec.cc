#include "sys/spec.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/args.h"
#include "common/logging.h"
#include "core/hold_mask.h"
#include "sys/registry.h"

namespace sp::sys
{

namespace
{

constexpr KeyValueGrammar kGrammar("system spec");

/** One key=value item, read as the type its key stores. */
struct Item
{
    const std::string &key;
    const std::string &value;

    double number() const { return kGrammar.number(key, value); }

    /** A number that must be positive and finite. */
    double positive() const
    {
        const double parsed = number();
        fatalIf(!(parsed > 0.0) || !std::isfinite(parsed), kGrammar.what(),
                ": '", key, "' must be positive and finite, got '", value,
                "'");
        return parsed;
    }

    uint32_t count(uint32_t least = 0) const
    {
        const uint64_t parsed = kGrammar.integer(
            key, value, std::numeric_limits<uint32_t>::max());
        fatalIf(parsed < least, kGrammar.what(), ": '", key,
                "' must be at least ", least);
        return static_cast<uint32_t>(parsed);
    }

    bool flag() const
    {
        if (value == "1" || value == "true" || value == "yes")
            return true;
        fatalIf(value != "0" && value != "false" && value != "no",
                kGrammar.what(), ": '", key, "' expects 0/1, got '",
                value, "'");
        return false;
    }
};

std::string
text(double value)
{
    return KeyValueGrammar::format(value);
}

/** One SystemSpec key: its name, its group, how its value is parsed
 *  into the spec and how summary() prints it. */
struct KeyRow
{
    const char *key;
    KeyGroup group;
    void (*parse)(SystemSpec &spec, const Item &item);
    std::string (*print)(const SystemSpec &spec);
};

/** Every key, in summary() order. */
const KeyRow kKeys[] = {
    {"cache", kCacheKeys,
     [](auto &s, auto &v) { s.cache_fraction = v.number(); },
     [](auto &s) { return text(*s.cache_fraction); }},
    {"policy", kScratchpadKeys,
     [](auto &s, auto &v) {
         s.scratchpipe.policy = cache::policyFromName(v.value);
     },
     [](auto &s) -> std::string {
         return cache::policyName(s.scratchpipe.policy);
     }},
    {"past", kScratchpadKeys,
     [](auto &s, auto &v) { s.scratchpipe.past_window = v.count(); },
     [](auto &s) { return std::to_string(s.scratchpipe.past_window); }},
    {"future", kScratchpadKeys,
     [](auto &s, auto &v) { s.scratchpipe.future_window = v.count(); },
     [](auto &s) { return std::to_string(s.scratchpipe.future_window); }},
    {"warm", kScratchpadKeys,
     [](auto &s, auto &v) { s.scratchpipe.warm_start = v.flag(); },
     [](auto &s) { return std::to_string(s.scratchpipe.warm_start); }},
    {"bound", kScratchpadKeys,
     [](auto &s, auto &v) {
         s.scratchpipe.enforce_capacity_bound = v.flag();
     },
     [](auto &s) {
         return std::to_string(s.scratchpipe.enforce_capacity_bound);
     }},
    {"shard", kScratchpadKeys,
     [](auto &s, auto &v) { s.scratchpipe.plan_shards = v.count(); },
     [](auto &s) { return std::to_string(s.scratchpipe.plan_shards); }},
    {"probe", kScratchpadKeys,
     [](auto &s, auto &v) {
         s.scratchpipe.probe = cache::probeModeFromName(v.value);
     },
     [](auto &s) -> std::string {
         return cache::probeModeName(s.scratchpipe.probe);
     }},
    {"arrival", kServeKeys,
     [](auto &s, auto &v) {
         s.serve.arrival.kind = data::arrivalKindFromName(v.value);
     },
     [](auto &s) -> std::string {
         return data::arrivalKindName(s.serve.arrival.kind);
     }},
    // Checked here, not at build time: rate=0 would divide every
    // Poisson inter-arrival gap by zero.
    {"rate", kServeKeys,
     [](auto &s, auto &v) { s.serve.arrival.rate = v.positive(); },
     [](auto &s) { return text(s.serve.arrival.rate); }},
    {"batch_max", kServeKeys,
     [](auto &s, auto &v) { s.serve.batch_max = v.count(1); },
     [](auto &s) { return std::to_string(s.serve.batch_max); }},
    {"budget_us", kServeKeys,
     [](auto &s, auto &v) { s.serve.budget_us = v.number(); },
     [](auto &s) { return text(s.serve.budget_us); }},
    {"refresh", kServeKeys,
     [](auto &s, auto &v) {
         s.serve.dynamic_refresh = v.value != "static";
         if (s.serve.dynamic_refresh)
             s.serve.policy = cache::policyFromName(v.value);
     },
     [](auto &s) -> std::string {
         return s.serve.dynamic_refresh ? cache::policyName(s.serve.policy)
                                        : "static";
     }},
    {"burst_x", kServeKeys,
     [](auto &s, auto &v) { s.serve.arrival.burst_x = v.number(); },
     [](auto &s) { return text(s.serve.arrival.burst_x); }},
    {"burst_on_us", kServeKeys,
     [](auto &s, auto &v) { s.serve.arrival.burst_on_us = v.number(); },
     [](auto &s) { return text(s.serve.arrival.burst_on_us); }},
    {"burst_off_us", kServeKeys,
     [](auto &s, auto &v) { s.serve.arrival.burst_off_us = v.number(); },
     [](auto &s) { return text(s.serve.arrival.burst_off_us); }},
};

/** The keys of `groups`, "a/b/c". */
std::string
keyList(unsigned groups)
{
    std::string list;
    for (const KeyRow &row : kKeys) {
        if (row.group & groups)
            list.append(list.empty() ? "" : "/").append(row.key);
    }
    return list;
}

} // namespace

SystemSpec
SystemSpec::parse(const std::string &text)
{
    SystemSpec spec;
    const size_t colon = text.find(':');
    spec.name = text.substr(0, colon);
    fatalIf(spec.name.empty(), kGrammar.what(),
            ": empty system name in '", text, "'");
    if (colon == std::string::npos)
        return spec;

    for (const auto &[key, value] :
         kGrammar.split(text.substr(colon + 1), text)) {
        const KeyRow *row = std::find_if(
            std::begin(kKeys), std::end(kKeys),
            [&](const KeyRow &r) { return key == r.key; });
        fatalIf(row == std::end(kKeys), kGrammar.what(),
                ": unknown key '", key, "' in '", text, "' (",
                keyList(kCacheKeys | kScratchpadKeys | kServeKeys), ")");
        row->parse(spec, Item{key, value});
        if (row->group != kCacheKeys)
            spec.tuned_groups |= row->group;
    }
    return spec;
}

SystemSpec
SystemSpec::withCache(const std::string &name, double fraction)
{
    SystemSpec spec;
    spec.name = name;
    spec.cache_fraction = fraction;
    return spec;
}

std::string
SystemSpec::summary() const
{
    const unsigned given =
        tuned_groups | (cache_fraction ? kCacheKeys : 0u);
    std::string text = name;
    char separator = ':';
    for (const KeyRow &row : kKeys) {
        if (row.group & given) {
            text.append(1, separator).append(row.key).append(1, '=');
            text += row.print(*this);
            separator = ',';
        }
    }
    return text;
}

void
SystemSpec::validate() const
{
    const Registry::Entry &entry = Registry::entry(name);
    if (cache_fraction.has_value()) {
        fatalIf(!(entry.key_groups & kCacheKeys), "system '", name,
                "' has no GPU cache; remove cache=", *cache_fraction,
                " (it was silently ignored by the legacy factory)");
        // Written as !(in range) so NaN is rejected too.
        fatalIf(!(*cache_fraction > 0.0 && *cache_fraction <= 1.0),
                "cache fraction must be in (0, 1], got ",
                *cache_fraction);
    }
    for (const auto &[group, lack] :
         {std::pair{kScratchpadKeys, "has no scratchpad"},
          std::pair{kServeKeys, "does not serve requests"}}) {
        fatalIf((tuned_groups & group) && !(entry.key_groups & group),
                "system '", name, "' ", lack, "; ", keyList(group),
                " do not apply");
    }
    if (entry.key_groups & kScratchpadKeys) {
        // Reject here, before any trace is generated, what HoldMask
        // would otherwise only refuse inside the simulation.
        const uint64_t width = core::HoldMask::widthBits(
            scratchpipe.past_window, scratchpipe.future_window);
        fatalIf(width > core::kHoldMaskBits, "system '", name,
                "': hold-mask window of ", width, " bits exceeds the ",
                core::kHoldMaskBits,
                "-bit mask storage (past + 1 + future)");
    }
    if (entry.key_groups & kServeKeys) {
        const std::string problem = serveOptions().validationError();
        fatalIf(!problem.empty(), "system '", name, "': ", problem);
    }
}

ScratchPipeOptions
SystemSpec::scratchPipeOptions(bool pipelined) const
{
    ScratchPipeOptions options = scratchpipe;
    options.pipelined = pipelined;
    if (cache_fraction.has_value())
        options.cache_fraction = *cache_fraction;
    return options;
}

ServeOptions
SystemSpec::serveOptions() const
{
    ServeOptions options = serve;
    if (cache_fraction.has_value())
        options.cache_fraction = *cache_fraction;
    return options;
}

} // namespace sp::sys
