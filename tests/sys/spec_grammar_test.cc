/**
 * @file
 * The spec key table and the key=value grammar it shares with the
 * workload spec.
 *
 * Covers: every malformed list fails both parsers with their own
 * prefix and the offending key; every registered family against every
 * table key (accepted keys reach a fixed point under
 * parse(summary()), the others fail validate() with the group
 * diagnostic); the canonical strings of the benchmark's specs; and a
 * seeded mutation fuzz over both parsers whose every input either
 * round-trips or fails with FatalError.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "data/workload.h"
#include "sys/registry.h"

namespace sp::sys
{
namespace
{

/** Substitute every "{I}" (integer key) and "{N}" (number key). */
std::string
instantiate(std::string pattern, const std::string &int_key,
            const std::string &num_key)
{
    for (const auto &[hole, key] :
         {std::pair{std::string("{I}"), int_key},
          std::pair{std::string("{N}"), num_key}}) {
        for (size_t at = pattern.find(hole); at != std::string::npos;
             at = pattern.find(hole))
            pattern.replace(at, hole.size(), key);
    }
    return pattern;
}

/** The FatalError message of `parse(text)`, or "" when it parses. */
template <typename Parse>
std::string
parseError(Parse parse, const std::string &text)
{
    try {
        parse(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(SpecGrammar, BadListsFailBothParsersWithPrefixAndKey)
{
    // {pattern, the key the diagnostic must name}: 'I' the integer key
    // (past / drift_period), 'N' the number key (cache / drift_amp).
    const std::vector<std::pair<const char *, char>> cases = {
        {"{I}", 'I'},                // missing '='
        {",{I}=3", 'I'},             // leading comma
        {"{I}=3,,{N}=0.5", 'I'},     // doubled comma
        {"{I}=3,", 'I'},             // trailing comma
        {"{I}=3,{N}=0.5,{I}=4", 'I'}, // duplicate key
        {"{N}=abc", 'N'},            // bad number
        {"{N}=", 'N'},
        {"{N}=0.5x", 'N'},
        {"{I}=0x3", 'I'},            // integers are decimal digits only
        {"{I}=3.0", 'I'},
        {"{I}=+3", 'I'},
        {"{I}=-3", 'I'},
        {"{I}=1e0", 'I'},
        {"{I}= 3", 'I'},
        {"{I}=", 'I'},
        {"{I}=99999999999999999999999", 'I'},
    };
    for (const auto &[pattern, which] : cases) {
        const std::string system =
            "scratchpipe:" + instantiate(pattern, "past", "cache");
        const std::string system_error = parseError(
            [](const std::string &t) { SystemSpec::parse(t); }, system);
        EXPECT_NE(system_error.find("system spec: "), std::string::npos)
            << system << " -> '" << system_error << "'";
        EXPECT_NE(system_error.find(which == 'I' ? "past" : "cache"),
                  std::string::npos)
            << system_error;

        const std::string workload =
            instantiate(pattern, "drift_period", "drift_amp");
        const std::string workload_error = parseError(
            [](const std::string &t) { data::WorkloadSpec::parse(t); },
            workload);
        EXPECT_NE(workload_error.find("workload spec: "),
                  std::string::npos)
            << workload << " -> '" << workload_error << "'";
        EXPECT_NE(workload_error.find(which == 'I' ? "drift_period"
                                                   : "drift_amp"),
                  std::string::npos)
            << workload_error;
    }
}

TEST(SpecGrammar, SystemIntegersAreBoundedTo32Bits)
{
    EXPECT_EQ(SystemSpec::parse("scratchpipe:past=4294967295")
                  .scratchpipe.past_window,
              4294967295u);
    EXPECT_THROW(SystemSpec::parse("scratchpipe:past=4294967296"),
                 FatalError);
    // Leading zeros are still decimal digits.
    EXPECT_EQ(SystemSpec::parse("scratchpipe:past=007").summary(),
              "scratchpipe:policy=LRU,past=7,future=2,warm=1,bound=1,"
              "shard=1,probe=auto");
}

/** Every table key of `group` as (key, default value), read back from
 *  summary() of a default spec with only that group given. */
std::vector<std::pair<std::string, std::string>>
groupKeys(KeyGroup group)
{
    SystemSpec spec;
    spec.name = "any";
    if (group == kCacheKeys)
        spec.cache_fraction = 0.05;
    else
        spec.tuned_groups = group;
    std::vector<std::pair<std::string, std::string>> keys;
    const std::string list = spec.summary().substr(spec.name.size() + 1);
    size_t begin = 0;
    while (begin < list.size()) {
        const size_t end = std::min(list.find(',', begin), list.size());
        const std::string item = list.substr(begin, end - begin);
        const size_t eq = item.find('=');
        keys.emplace_back(item.substr(0, eq), item.substr(eq + 1));
        begin = end + 1;
    }
    return keys;
}

TEST(SpecKeyTable, EveryFamilyTimesEveryKey)
{
    const std::vector<std::pair<KeyGroup, const char *>> groups = {
        {kCacheKeys, "has no GPU cache"},
        {kScratchpadKeys, "has no scratchpad"},
        {kServeKeys, "does not serve requests"},
    };
    size_t keys_seen = 0;
    for (const auto &[group, lack] : groups) {
        const auto keys = groupKeys(group);
        ASSERT_FALSE(keys.empty());
        keys_seen += keys.size();
        for (const auto &name : Registry::names()) {
            const bool accepts = Registry::entry(name).key_groups & group;
            for (const auto &[key, value] : keys) {
                const std::string text = name + ":" + key + "=" + value;
                SCOPED_TRACE(text);
                const SystemSpec spec = SystemSpec::parse(text);
                if (accepts) {
                    EXPECT_NO_THROW(spec.validate());
                    const std::string canonical = spec.summary();
                    EXPECT_EQ(SystemSpec::parse(canonical).summary(),
                              canonical);
                    continue;
                }
                const std::string error = parseError(
                    [&](const std::string &) { spec.validate(); }, text);
                EXPECT_NE(error.find(std::string("' ") + lack),
                          std::string::npos)
                    << error;
                EXPECT_NE(error.find(key), std::string::npos) << error;
            }
        }
    }
    EXPECT_EQ(keys_seen, 16u);
}

TEST(SpecKeyTable, BenchmarkSpecsKeepTheirCanonicalStrings)
{
    // summary() feeds RunResult::system_name and the benchmark's result
    // digests, so these strings are pinned byte for byte.
    const std::vector<std::pair<const char *, const char *>> pinned = {
        {"hybrid", "hybrid"},
        {"multigpu", "multigpu"},
        {"scratchpipe", "scratchpipe"},
        {"static:cache=0.02", "static:cache=0.02"},
        {"strawman:cache=0.02,warm=0",
         "strawman:cache=0.02,policy=LRU,past=3,future=2,warm=0,bound=1,"
         "shard=1,probe=auto"},
        {"scratchpipe:cache=0.02,policy=lfu,warm=0",
         "scratchpipe:cache=0.02,policy=LFU,past=3,future=2,warm=0,"
         "bound=1,shard=1,probe=auto"},
        {"serve:refresh=lru,rate=20000",
         "serve:arrival=poisson,rate=20000,batch_max=32,budget_us=200,"
         "refresh=LRU,burst_x=8,burst_on_us=500,burst_off_us=4500"},
    };
    for (const auto &[text, canonical] : pinned) {
        const SystemSpec spec = SystemSpec::parse(text);
        EXPECT_NO_THROW(spec.validate()) << text;
        EXPECT_EQ(spec.summary(), canonical) << text;
    }
}

// ---- Seeded mutation fuzz -------------------------------------------

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Seeds: every table key with its default, the README examples, the
 *  golden and benchmark specs, and the workload specs beside them. */
std::vector<std::string>
fuzzCorpus()
{
    std::vector<std::string> corpus = {
        // README and spec.h examples.
        "hybrid", "static:cache=0.02",
        "scratchpipe:cache=0.05,policy=lfu,past=4",
        "scratchpipe:cache=0.05,policy=lfu,past=4,future=2,warm=0",
        "scratchpipe:shard=8", "scratchpipe:probe=scalar",
        "scratchpipe:policy=lfu",
        "serve:rate=500000,arrival=bursty,batch_max=16,budget_us=300,"
        "refresh=lru",
        // Goldens and the benchmark.
        "static:cache=0.1", "strawman", "scratchpipe", "multigpu",
        "strawman:cache=0.02,warm=0",
        "scratchpipe:cache=0.02,policy=lfu,warm=0",
        "serve:refresh=lru,rate=20000",
        "serve:arrival=bursty,rate=250000,batch_max=16,budget_us=300,"
        "refresh=lfu,burst_x=4,burst_on_us=250,burst_off_us=2000",
        // Workload specs.
        "drift_amp=0.4,drift_period=3,phase=1",
        "burst_frac=0.5,burst_period=4,burst_len=2,burst_ranks=64,"
        "churn_k=32,churn_period=2",
        "churn_k=1024,churn_period=4,burst_frac=0.3,burst_period=8,"
        "burst_len=2,burst_ranks=512",
        "churn_k=1024,churn_period=32", "replay=/tmp/a.sptrace",
    };
    for (KeyGroup group : {kCacheKeys, kScratchpadKeys, kServeKeys}) {
        for (const auto &[key, value] : groupKeys(group))
            corpus.push_back("scratchpipe:" + key + "=" + value);
    }
    return corpus;
}

/** One input through SystemSpec: parse, validate and round-trip, or
 *  FatalError. Anything else fails the test. Returns true when the
 *  input was accepted. */
bool
checkSystemSpec(const std::string &input)
{
    SystemSpec spec;
    try {
        spec = SystemSpec::parse(input);
        spec.validate();
    } catch (const FatalError &) {
        return false;
    }
    const std::string canonical = spec.summary();
    const SystemSpec again = SystemSpec::parse(canonical);
    again.validate();
    EXPECT_EQ(again.summary(), canonical) << "input '" << input << "'";
    return true;
}

/** The same contract for WorkloadSpec, validated at a fixed geometry. */
bool
checkWorkloadSpec(const std::string &input)
{
    data::WorkloadSpec spec;
    try {
        spec = data::WorkloadSpec::parse(input);
    } catch (const FatalError &) {
        return false;
    }
    if (!spec.config.validationError(1u << 20).empty())
        return false;
    const data::WorkloadSpec again =
        data::WorkloadSpec::parse(spec.summary());
    EXPECT_TRUE(again.config == spec.config) << "input '" << input << "'";
    EXPECT_EQ(again.replay_path, spec.replay_path);
    EXPECT_EQ(again.summary(), spec.summary()) << "input '" << input << "'";
    return true;
}

TEST(SpecGrammarFuzz, MutatedSpecsRoundTripOrFailWithFatalError)
{
    const std::vector<std::string> corpus = fuzzCorpus();
    // Bytes that move the grammar: separators, digits, number syntax,
    // case, whitespace, NUL and a high byte.
    const std::string alphabet = std::string(",=:.-+exX0123456789 aLn") +
                                 '\0' + '\xff';
    uint64_t state = 0x5bec5bec;
    int system_accepted = 0, workload_accepted = 0, rejected = 0;
    const auto pick = [&](size_t n) {
        return static_cast<size_t>(splitmix64(state) % n);
    };
    for (int round = 0; round < 20000; ++round) {
        std::string input = corpus[pick(corpus.size())];
        const size_t mutations = 1 + pick(4);
        for (size_t m = 0; m < mutations; ++m) {
            const size_t at = pick(input.size() + 1);
            switch (pick(6)) {
            case 0: // insert a byte
                input.insert(at, 1, alphabet[pick(alphabet.size())]);
                break;
            case 1: // delete a byte
                if (at < input.size())
                    input.erase(at, 1);
                break;
            case 2: // overwrite a byte
                if (at < input.size())
                    input[at] = alphabet[pick(alphabet.size())];
                break;
            case 3: // truncate
                input.resize(at);
                break;
            case 4: { // splice in a piece of another seed
                const std::string &other = corpus[pick(corpus.size())];
                const size_t from = pick(other.size() + 1);
                input.insert(at, other.substr(from, pick(24)));
                break;
            }
            default: // repeat a slice (duplicate keys, doubled commas)
                input.insert(at, input.substr(pick(input.size() + 1),
                                              pick(16)));
                break;
            }
        }
        SCOPED_TRACE("round " + std::to_string(round));
        const bool system_ok = checkSystemSpec(input);
        const bool workload_ok = checkWorkloadSpec(input);
        ASSERT_FALSE(testing::Test::HasFailure());
        system_accepted += system_ok;
        workload_accepted += workload_ok;
        rejected += !system_ok && !workload_ok;
    }
    // Both outcomes must actually have been exercised.
    EXPECT_GT(system_accepted, 200);
    EXPECT_GT(workload_accepted, 200);
    EXPECT_GT(rejected, 1000);
}

} // namespace
} // namespace sp::sys
