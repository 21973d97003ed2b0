/**
 * @file
 * Minimal command-line argument parsing for the tools and examples.
 *
 * Supports `--flag value` and `--flag=value` forms plus boolean
 * switches, with typed accessors, defaults, and an auto-generated
 * usage string. Unknown flags are fatal (catching typos beats
 * silently ignoring them in an experiment driver).
 *
 * KeyValueGrammar is the `key=value[,key=value...]` list grammar that
 * system specs (sys/spec.h) and workload specs (data/workload.h)
 * share.
 */

#ifndef SP_COMMON_ARGS_H
#define SP_COMMON_ARGS_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sp
{

/** Declarative flag registry + parser. */
class ArgParser
{
  public:
    explicit ArgParser(std::string program_description);

    /** Register a string flag with a default. */
    void addString(const std::string &name, const std::string &fallback,
                   const std::string &help);
    /** Register an integer flag with a default. */
    void addInt(const std::string &name, int64_t fallback,
                const std::string &help);
    /** Register a floating-point flag with a default. */
    void addDouble(const std::string &name, double fallback,
                   const std::string &help);
    /** Register a boolean switch (false unless given). */
    void addBool(const std::string &name, const std::string &help);

    /**
     * Parse argv. fatal() on unknown flags, missing values,
     * malformed numbers, or booleans other than true/false/1/0/yes/no.
     * Returns false (after printing usage) when --help was requested.
     */
    bool parse(int argc, const char *const *argv);

    std::string getString(const std::string &name) const;
    int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** True when the flag was given on the command line (as opposed
     *  to holding its default). */
    bool wasSet(const std::string &name) const;

    /** Human-readable usage text. */
    std::string usage() const;

  private:
    enum class Kind
    {
        String,
        Int,
        Double,
        Bool,
    };
    struct Flag
    {
        Kind kind;
        std::string fallback;
        std::string value;
        std::string help;
        bool set = false;
    };

    const Flag &flagOrDie(const std::string &name, Kind kind) const;

    std::string description_;
    std::string program_ = "program";
    std::map<std::string, Flag> flags_;
};

/** Upper bound accepted for --jobs pool widths. */
inline constexpr int64_t kMaxJobs = 4096;

/**
 * Validated accessor for the --jobs integer flag: the value must lie
 * in [0, kMaxJobs] (0 = all cores). fatal() with a usage hint on
 * negative or absurd widths, which would otherwise wrap into a
 * many-terathread pool request. Every driver's --jobs goes through
 * here so the bound is enforced in exactly one place.
 */
uint32_t parseJobsArg(const ArgParser &args);

/**
 * The `key=value[,key=value...]` list grammar of system and workload
 * specs. Every diagnostic is fatal() and starts with the caller's
 * prefix ("system spec: ...", "workload spec: ...").
 */
class KeyValueGrammar
{
  public:
    constexpr explicit KeyValueGrammar(const char *what) : what_(what) {}

    const char *what() const { return what_; }

    /**
     * The (key, value) items of `list` in order ("" has none). An
     * empty item (a stray comma), an item without '=' and a repeated
     * key are errors. `text`, the whole spec, is quoted in messages.
     */
    std::vector<std::pair<std::string, std::string>>
    split(const std::string &list, const std::string &text) const;

    /** A number in strtod syntax, nothing after it. */
    double number(const std::string &key, const std::string &value) const;

    /** Decimal digits only (no sign, fraction, exponent or "0x"),
     *  at most `max`. */
    uint64_t integer(const std::string &key, const std::string &value,
                     uint64_t max = std::numeric_limits<uint64_t>::max())
        const;

    /** Shortest text that number() reads back as `value`. */
    static std::string format(double value);

  private:
    const char *what_;
};

} // namespace sp

#endif // SP_COMMON_ARGS_H
