#include "common/args.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"

namespace sp
{

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description))
{
}

void
ArgParser::addString(const std::string &name, const std::string &fallback,
                     const std::string &help)
{
    flags_[name] = Flag{Kind::String, fallback, fallback, help, false};
}

void
ArgParser::addInt(const std::string &name, int64_t fallback,
                  const std::string &help)
{
    flags_[name] = Flag{Kind::Int, std::to_string(fallback),
                        std::to_string(fallback), help, false};
}

void
ArgParser::addDouble(const std::string &name, double fallback,
                     const std::string &help)
{
    std::ostringstream os;
    os << fallback;
    flags_[name] = Flag{Kind::Double, os.str(), os.str(), help, false};
}

void
ArgParser::addBool(const std::string &name, const std::string &help)
{
    flags_[name] = Flag{Kind::Bool, "false", "false", help, false};
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token == "--help" || token == "-h")
            return false;
        fatalIf(token.rfind("--", 0) != 0, "unexpected argument '", token,
                "' (flags start with --)");
        token = token.substr(2);

        std::string value;
        bool has_value = false;
        const size_t eq = token.find('=');
        if (eq != std::string::npos) {
            value = token.substr(eq + 1);
            token = token.substr(0, eq);
            has_value = true;
        }

        auto it = flags_.find(token);
        fatalIf(it == flags_.end(), "unknown flag --", token, "\n",
                usage());
        Flag &flag = it->second;

        if (flag.kind == Kind::Bool) {
            // A typo must not read as false: --list-systems=maybe
            // would silently run the default simulation.
            if (!has_value || value == "true" || value == "1" ||
                value == "yes")
                flag.value = "true";
            else if (value == "false" || value == "0" || value == "no")
                flag.value = "false";
            else
                fatal("flag --", token, " expects true/false/1/0/yes/no, "
                      "got '", value, "'");
        } else {
            if (!has_value) {
                fatalIf(i + 1 >= argc, "flag --", token,
                        " expects a value");
                value = argv[++i];
            }
            if (flag.kind == Kind::Int) {
                char *end = nullptr;
                errno = 0;
                std::strtoll(value.c_str(), &end, 10);
                fatalIf(end == value.c_str() || *end != '\0', "flag --",
                        token, " expects an integer, got '", value, "'");
                // strtoll clamps out-of-range input to LLONG_MIN/MAX
                // and only reports it via errno; accepting the clamp
                // would silently turn a typo into a huge value.
                fatalIf(errno == ERANGE, "flag --", token,
                        " value '", value, "' overflows a 64-bit int");
            } else if (flag.kind == Kind::Double) {
                char *end = nullptr;
                errno = 0;
                const double parsed = std::strtod(value.c_str(), &end);
                fatalIf(end == value.c_str() || *end != '\0', "flag --",
                        token, " expects a number, got '", value, "'");
                // ERANGE alone also covers harmless underflow to a
                // subnormal; only the overflow clamp to +/-HUGE_VAL
                // loses the user's value.
                fatalIf(errno == ERANGE &&
                            (parsed == HUGE_VAL || parsed == -HUGE_VAL),
                        "flag --", token, " value '", value,
                        "' overflows a double");
            }
            flag.value = value;
        }
        flag.set = true;
    }
    return true;
}

const ArgParser::Flag &
ArgParser::flagOrDie(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    panicIf(it == flags_.end(), "flag --", name, " was never registered");
    panicIf(it->second.kind != kind, "flag --", name,
            " accessed with the wrong type");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return flagOrDie(name, Kind::String).value;
}

int64_t
ArgParser::getInt(const std::string &name) const
{
    return std::strtoll(flagOrDie(name, Kind::Int).value.c_str(), nullptr,
                        10);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(flagOrDie(name, Kind::Double).value.c_str(),
                       nullptr);
}

bool
ArgParser::getBool(const std::string &name) const
{
    return flagOrDie(name, Kind::Bool).value == "true";
}

bool
ArgParser::wasSet(const std::string &name) const
{
    auto it = flags_.find(name);
    panicIf(it == flags_.end(), "flag --", name, " was never registered");
    return it->second.set;
}

uint32_t
parseJobsArg(const ArgParser &args)
{
    const int64_t jobs = args.getInt("jobs");
    fatalIf(jobs < 0, "--jobs must be >= 0 (0 = all cores), got ", jobs);
    fatalIf(jobs > kMaxJobs, "--jobs must be <= ", kMaxJobs, ", got ",
            jobs);
    return static_cast<uint32_t>(jobs);
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << description_ << "\n\nusage: " << program_ << " [flags]\n";
    for (const auto &[name, flag] : flags_) {
        os << "  --" << name;
        if (flag.kind != Kind::Bool)
            os << " <" << flag.fallback << ">";
        os << "  " << flag.help << "\n";
    }
    return os.str();
}

std::vector<std::pair<std::string, std::string>>
KeyValueGrammar::split(const std::string &list, const std::string &text) const
{
    std::vector<std::pair<std::string, std::string>> items;
    for (size_t begin = 0; !list.empty() && begin <= list.size();) {
        const size_t end = std::min(list.find(',', begin), list.size());
        const std::string item = list.substr(begin, end - begin);
        const size_t eq = item.find('=');
        fatalIf(eq == std::string::npos, what_,
                ": expected key=value, got '", item, "' in '", text, "'");
        std::string key = item.substr(0, eq);
        for (const auto &seen : items)
            fatalIf(seen.first == key, what_, ": duplicate key '", key,
                    "' in '", text, "' (each option may appear once)");
        items.emplace_back(std::move(key), item.substr(eq + 1));
        begin = end + 1;
    }
    return items;
}

double
KeyValueGrammar::number(const std::string &key,
                        const std::string &value) const
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    fatalIf(value.empty() || *end != '\0', what_, ": bad number '",
            value, "' for key '", key, "'");
    return parsed;
}

uint64_t
KeyValueGrammar::integer(const std::string &key, const std::string &value,
                         uint64_t max) const
{
    // Unsigned from_chars takes digits only: no sign, no whitespace,
    // no "0x". A fraction or exponent stops it short of the end.
    uint64_t parsed = 0;
    const char *last = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), last, parsed);
    fatalIf(ec != std::errc() || ptr != last || parsed > max, what_,
            ": '", key, "' must be a non-negative decimal integer",
            max == std::numeric_limits<uint64_t>::max()
                ? std::string()
                : " <= " + std::to_string(max),
            ", got '", value, "'");
    return parsed;
}

std::string
KeyValueGrammar::format(double value)
{
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return ec == std::errc() ? std::string(buffer, end)
                             : std::to_string(value);
}

} // namespace sp
