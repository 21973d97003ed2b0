#include "splint/splint.h"

#include "splint/index.h"
#include "splint/lexer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>

namespace sp::splint
{

namespace fs = std::filesystem;

namespace
{

// ---- Rule table ----------------------------------------------------

const std::vector<Rule> kRules = {
    {"no-raw-thread", Severity::Error,
     "raw std::thread/std::async/pthread outside common/thread_pool",
     "route parallel work through sp::common::ThreadPool so SP_JOBS "
     "bounds it and the bit-identical execution contract holds"},
    {"no-nondeterminism", Severity::Error,
     "nondeterminism source (rand/random_device/clock) in a "
     "simulation path",
     "thread an explicit seed through the config (tensor/rng.h); "
     "simulation output must be a pure function of the spec"},
    {"hot-path-alloc", Severity::Error,
     "allocation, stream IO or fault site inside a marked hot-path "
     "region",
     "hoist the allocation into per-controller scratch that retains "
     "capacity across calls, move the IO off the hot path, and plant "
     "SP_FAULT_POINT outside marked regions (even disarmed it is a "
     "branch per call)"},
    {"io-status", Severity::Error,
     "environmental-failure handling violation on an IO path",
     "environmental failures in src/data return sp::Status / "
     "sp::Result (common/status.h) so callers can degrade; panic/"
     "exit/terminate are for programmer errors only (justify with "
     "splint:allow). Never discard a Status-returning call "
     "(saveTo/tryReplay/tryMapped/tryOpen) as a bare statement"},
    {"hot-path-marker", Severity::Error,
     "unbalanced splint:hot-path-begin/end markers",
     "every hot-path-begin(<name>) needs one hot-path-end in the "
     "same file, and regions cannot nest"},
    {"kernel-registration", Severity::Error,
     "probe-kernel TU missing from the kernel-equivalence harness",
     "register the kernel in compiledProbeKernels() and name it in "
     "tests/cache/probe_kernel_equivalence_test.cc so the harness "
     "proves it bit-identical to scalar"},
    {"spec-doc", Severity::Error,
     "spec key parsed in sys/spec.cc or data/workload.cc but "
     "undocumented in README.md",
     "add the key to README.md's spec-key list (users discover the "
     "grammar there, not in the parser)"},
    {"allow-justification", Severity::Error,
     "splint:allow without a justification",
     "write `// splint:allow(<rule>): <why this site is exempt>`"},
    {"allow-unknown-rule", Severity::Error,
     "splint:allow naming a rule that does not exist",
     "use a rule id from `splint --list-rules`"},
    {"hot-path-transitive-alloc", Severity::Error,
     "allocation, stream IO or fault site in a function reachable "
     "from a hot-path region",
     "hoist the allocation out of the callee into scratch that "
     "retains capacity, or break the call chain out of the hot "
     "region; if the degradation is deliberate (one-time setup, "
     "capacity-retaining resize), justify it with a splint:allow at "
     "the allocation site"},
    {"determinism-taint", Severity::Error,
     "nondeterminism source reachable from a simulation entry point "
     "in src/{sys,cache,data}",
     "thread an explicit seed through the config (tensor/rng.h); "
     "anything the simulation can call must be a pure function of "
     "the spec"},
    {"layering", Severity::Error,
     "include edge that points up the module dependency order, or an "
     "include cycle",
     "depend downward only (common -> {cache,data,emb,tensor} -> "
     "{core,sim,nn,metrics} -> sys); break cycles by moving the "
     "shared declaration into the lower layer"},
    {"fault-site-registry", Severity::Error,
     "SP_FAULT_POINT site missing from the fault.cc registry, "
     "unreferenced, or not exercised by the FaultMatrix test",
     "register the site (with its degradation contract) in "
     "src/common/fault.cc sites() and add a FaultMatrix scenario in "
     "tests/common/fault_injection_test.cc"},
};

// ---- Line-scoped rule patterns -------------------------------------

/** A regex-driven line rule plus its path scope. */
struct LineRule
{
    const char *id;
    std::regex pattern;
    bool (*applies)(const std::string &path);
    bool hot_path_only;
};

bool
anyPath(const std::string &)
{
    return true;
}

bool
outsideThreadPool(const std::string &path)
{
    return path != "src/common/thread_pool.cc" &&
           path != "src/common/thread_pool.h";
}

bool
simulationPath(const std::string &path)
{
    return path.starts_with("src/sys/") ||
           path.starts_with("src/cache/") || path.starts_with("src/data/");
}

bool
dataPath(const std::string &path)
{
    return path.starts_with("src/data/");
}

bool
srcPath(const std::string &path)
{
    return path.starts_with("src/");
}

const std::vector<LineRule> &
lineRules()
{
    static const std::vector<LineRule> rules = {
        {"no-raw-thread",
         std::regex(R"(\bstd\s*::\s*(thread|jthread|async)\b)"
                    R"(|\bpthread_(create|join|detach)\b)"),
         outsideThreadPool, false},
        // The nondeterminism and allocation token sets are shared
        // with the symbol index (splint/index.h) so the lexical and
        // transitive rules cannot drift apart.
        {"no-nondeterminism", nondetTokenPattern(), simulationPath,
         false},
        {"hot-path-alloc", allocTokenPattern(), anyPath, true},
        // io-status, facet 1: process-killing calls on IO paths. A
        // panic in src/data is presumed wrong (environmental failures
        // must come back as sp::Status) unless a splint:allow argues
        // it guards a caller contract or internal invariant.
        {"io-status",
         std::regex(R"(\babort\s*\(|\bexit\s*\(|\bquick_exit\s*\()"
                    R"(|\b_Exit\s*\(|\bstd\s*::\s*terminate\b)"
                    R"(|\bpanic(If)?\s*\()"),
         dataPath, false},
        // io-status, facet 2: a Status-returning IO call discarded as
        // a bare statement. The shape is a full single-line statement
        // `receiver.call(...);` (or ->/:: chains into it): such a
        // statement uses neither the Status nor a value, so the
        // failure is silently dropped. Assignments, returns and
        // conditions put a token before the receiver; declarations
        // and definitions lack the trailing `;` or the qualifier.
        // (Discards split across lines slip past a line lint; the
        // [[nodiscard]] on Status/Result still catches those at
        // compile time.)
        {"io-status",
         std::regex(R"(^\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)+)"
                    R"((?:saveTo|tryReplay|tryMapped|tryOpen)\s*\()"
                    R"([^;]*\)\s*;\s*$)"),
         srcPath, false},
    };
    return rules;
}

// ---- Source text scanning ------------------------------------------

// The lexer lives in splint/lexer.h: per-line code/comment/
// code_with_literals channels, with raw-string and line-splice
// handling, shared with the symbol index.

/** A parsed `splint:allow(rule): justification` directive. */
struct Allow
{
    std::string rule;
    bool justified = false;
};

Diagnostic
makeDiagnostic(const std::string &path, size_t line,
               const std::string &rule_id, const std::string &message)
{
    const Rule *rule = findRule(rule_id);
    Diagnostic diag;
    diag.file = path;
    diag.line = line;
    diag.rule = rule_id;
    diag.severity = rule != nullptr ? rule->severity : Severity::Error;
    diag.message = message;
    diag.fixit = rule != nullptr ? rule->fixit : "";
    return diag;
}

std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
relativePath(const fs::path &root, const fs::path &file)
{
    return fs::relative(file, root).generic_string();
}

// ---- Project-wide rules --------------------------------------------

/**
 * kernel-registration: every src/cache/probe_kernel_<arch>.cc must be
 * named inside the kernel-equivalence harness (which enumerates
 * compiledProbeKernels() and asserts each kernel against scalar, so a
 * TU whose name never appears there was never wired into either).
 */
void
lintKernelRegistration(const fs::path &root,
                       std::vector<Diagnostic> &diagnostics)
{
    const fs::path kernel_dir = root / "src" / "cache";
    if (!fs::is_directory(kernel_dir))
        return;

    std::vector<fs::path> kernel_tus;
    for (const auto &entry : fs::directory_iterator(kernel_dir)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("probe_kernel_") && name.ends_with(".cc"))
            kernel_tus.push_back(entry.path());
    }
    if (kernel_tus.empty())
        return;

    const fs::path harness =
        root / "tests" / "cache" / "probe_kernel_equivalence_test.cc";
    const std::optional<std::string> harness_text = readFile(harness);
    for (const fs::path &tu : kernel_tus) {
        const std::string name = tu.filename().string();
        const std::string arch = name.substr(
            std::string("probe_kernel_").size(),
            name.size() - std::string("probe_kernel_").size() - 3);
        if (!harness_text.has_value() ||
            harness_text->find(arch) == std::string::npos) {
            diagnostics.push_back(makeDiagnostic(
                relativePath(root, tu), 0, "kernel-registration",
                "probe kernel '" + arch + "' is not covered by " +
                    "tests/cache/probe_kernel_equivalence_test.cc"));
        }
    }
}

/**
 * spec-doc: every spec key must have a matching `<k>=` in README.md.
 * System spec keys are the rows of sys/spec.cc's key table,
 * `{"<k>", k<Group>Keys, ...}`; workload spec keys are the
 * `key == "<k>"` comparisons in data/workload.cc.
 */
void
lintSpecDoc(const fs::path &root, std::vector<Diagnostic> &diagnostics)
{
    const std::optional<std::string> readme =
        readFile(root / "README.md");
    const std::regex key_pattern(
        R"re(\bkey\s*==\s*"([A-Za-z0-9_]+)")re"
        R"re(|\{\s*"([A-Za-z0-9_]+)"\s*,\s*k[A-Za-z]*Keys\b)re");

    const fs::path parsers[] = {root / "src" / "sys" / "spec.cc",
                                root / "src" / "data" / "workload.cc"};
    for (const fs::path &spec : parsers) {
        const std::optional<std::string> spec_text = readFile(spec);
        if (!spec_text.has_value())
            continue;

        // The key names live inside string literals, so this check
        // reads the literal-preserving channel (comments still
        // stripped: a commented-out key is not a parsed key).
        const std::vector<ScannedLine> lines = scanLines(*spec_text);
        for (size_t i = 0; i < lines.size(); ++i) {
            auto begin = std::sregex_iterator(
                lines[i].code_with_literals.begin(),
                lines[i].code_with_literals.end(), key_pattern);
            for (auto it = begin; it != std::sregex_iterator(); ++it) {
                const std::string key =
                    (*it)[(*it)[1].matched ? 1 : 2].str();
                if (!readme.has_value() ||
                    readme->find(key + "=") == std::string::npos) {
                    diagnostics.push_back(makeDiagnostic(
                        relativePath(root, spec), i + 1, "spec-doc",
                        "spec key '" + key +
                            "=' is parsed here but not documented in "
                            "README.md"));
                }
            }
        }
    }
}

} // namespace

// ---- Public API ----------------------------------------------------

const char *
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

const std::vector<Rule> &
rules()
{
    return kRules;
}

const Rule *
findRule(const std::string &id)
{
    for (const Rule &rule : kRules) {
        if (id == rule.id)
            return &rule;
    }
    return nullptr;
}

std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &text)
{
    std::vector<Diagnostic> diagnostics;
    const std::vector<ScannedLine> lines = scanLines(text);

    // Pass 1: directives. Only the comment channel is consulted, so a
    // directive spelled inside a string literal never acts as one.
    static const std::regex allow_pattern(
        R"(splint:allow\(([A-Za-z0-9_-]+)\)(:\s*(\S.*))?)");
    static const std::regex begin_pattern(
        R"(splint:hot-path-begin(\(([A-Za-z0-9_-]+)\))?)");
    static const std::regex end_pattern(R"(splint:hot-path-end\b)");

    std::map<size_t, Allow> allows; // 0-based line -> directive
    std::vector<bool> hot(lines.size(), false);
    bool in_hot = false;
    size_t hot_begin_line = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &comment = lines[i].comment;
        std::smatch match;
        if (std::regex_search(comment, match, allow_pattern)) {
            Allow allow;
            allow.rule = match[1].str();
            allow.justified = match[3].matched;
            if (findRule(allow.rule) == nullptr) {
                diagnostics.push_back(makeDiagnostic(
                    path, i + 1, "allow-unknown-rule",
                    "splint:allow names unknown rule '" + allow.rule +
                        "'"));
            } else if (!allow.justified) {
                diagnostics.push_back(makeDiagnostic(
                    path, i + 1, "allow-justification",
                    "splint:allow(" + allow.rule +
                        ") has no justification"));
            }
            allows[i] = allow;
        }
        if (std::regex_search(comment, match, begin_pattern)) {
            if (in_hot) {
                diagnostics.push_back(makeDiagnostic(
                    path, i + 1, "hot-path-marker",
                    "hot-path-begin inside an open hot-path region "
                    "(opened on line " +
                        std::to_string(hot_begin_line + 1) + ")"));
            }
            in_hot = true;
            hot_begin_line = i;
        } else if (std::regex_search(comment, match, end_pattern)) {
            if (!in_hot) {
                diagnostics.push_back(makeDiagnostic(
                    path, i + 1, "hot-path-marker",
                    "hot-path-end without a matching begin"));
            }
            in_hot = false;
        }
        hot[i] = in_hot;
    }
    if (in_hot) {
        diagnostics.push_back(makeDiagnostic(
            path, hot_begin_line + 1, "hot-path-marker",
            "hot-path-begin is never closed"));
    }

    // Pass 2: the regex rules, over comment/string-stripped code.
    const auto allowed = [&](size_t line, const char *rule_id) {
        for (const size_t candidate : {line, line - 1}) {
            if (candidate > line) // line 0 has no predecessor
                continue;
            const auto it = allows.find(candidate);
            if (it != allows.end() && it->second.rule == rule_id &&
                it->second.justified)
                return true;
        }
        return false;
    };

    for (const LineRule &rule : lineRules()) {
        if (!rule.applies(path))
            continue;
        for (size_t i = 0; i < lines.size(); ++i) {
            if (rule.hot_path_only && !hot[i])
                continue;
            std::smatch match;
            if (!std::regex_search(lines[i].code, match, rule.pattern))
                continue;
            if (allowed(i, rule.id))
                continue;
            diagnostics.push_back(makeDiagnostic(
                path, i + 1, rule.id,
                "'" + match.str() + "' " +
                    (rule.hot_path_only
                         ? std::string("inside a hot-path region")
                         : std::string("violates ") + rule.id)));
        }
    }

    sortDiagnostics(diagnostics);
    return diagnostics;
}

void
sortDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
}

std::vector<Diagnostic>
lintTree(const fs::path &root)
{
    std::vector<Diagnostic> diagnostics;

    std::vector<fs::path> files;
    for (const char *subtree : {"src", "bench", "tests"}) {
        const fs::path dir = root / subtree;
        if (!fs::is_directory(dir))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext == ".cc" || ext == ".h" || ext == ".cpp")
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());

    for (const fs::path &file : files) {
        const std::optional<std::string> text = readFile(file);
        if (!text.has_value())
            continue;
        std::vector<Diagnostic> file_diags =
            lintSource(relativePath(root, file), *text);
        diagnostics.insert(diagnostics.end(),
                           std::make_move_iterator(file_diags.begin()),
                           std::make_move_iterator(file_diags.end()));
    }

    lintKernelRegistration(root, diagnostics);
    lintSpecDoc(root, diagnostics);
    sortDiagnostics(diagnostics);
    return diagnostics;
}

bool
hasErrors(const std::vector<Diagnostic> &diagnostics)
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [](const Diagnostic &diag) {
                           return diag.severity == Severity::Error;
                       });
}

std::string
toText(const std::vector<Diagnostic> &diagnostics)
{
    std::ostringstream os;
    for (const Diagnostic &diag : diagnostics) {
        os << diag.file << ':' << diag.line << ": "
           << severityName(diag.severity) << ": [" << diag.rule << "] "
           << diag.message << '\n';
        if (!diag.fixit.empty())
            os << "    fixit: " << diag.fixit << '\n';
    }
    os << (diagnostics.empty() ? "splint: clean" : "splint: ")
       << (diagnostics.empty()
               ? std::string()
               : std::to_string(diagnostics.size()) + " violation(s)")
       << '\n';
    return os.str();
}

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace

std::string
toJson(const std::vector<Diagnostic> &diagnostics)
{
    std::ostringstream os;
    os << "{\"tool\":\"splint\",\"schema_version\":2,\"count\":"
       << diagnostics.size() << ",\"violations\":[";
    for (size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &diag = diagnostics[i];
        if (i > 0)
            os << ',';
        os << "\n  {\"file\":\"" << jsonEscape(diag.file)
           << "\",\"line\":" << diag.line << ",\"rule\":\""
           << jsonEscape(diag.rule) << "\",\"severity\":\""
           << severityName(diag.severity) << "\",\"message\":\""
           << jsonEscape(diag.message) << "\",\"fixit\":\""
           << jsonEscape(diag.fixit) << "\"}";
    }
    os << (diagnostics.empty() ? "]}" : "\n]}") << '\n';
    return os.str();
}

bool
selfTest(const fs::path &fixtures, std::ostream &log)
{
    bool ok = true;
    std::set<std::string> fired;
    const auto fail = [&](const std::string &message) {
        log << "splint self-test: " << message << '\n';
        ok = false;
    };

    // Each bad fixture must produce its expected rule (and may
    // produce others -- a file demonstrating hot-path-alloc also
    // legitimately exercises the markers).
    struct Expectation
    {
        const char *file; //!< path under fixtures/violations/
        const char *rule;
    };
    const std::vector<Expectation> expectations = {
        {"src/sys/bad_thread.cc", "no-raw-thread"},
        {"src/sys/bad_rng.cc", "no-nondeterminism"},
        {"src/cache/bad_hot_path.cc", "hot-path-alloc"},
        {"src/cache/bad_markers.cc", "hot-path-marker"},
        {"src/sys/bad_allow.cc", "allow-justification"},
        {"src/sys/bad_allow.cc", "allow-unknown-rule"},
        {"src/data/bad_io_status.cc", "io-status"},
    };
    for (const Expectation &expected : expectations) {
        const fs::path file = fixtures / "violations" / expected.file;
        const std::optional<std::string> text = readFile(file);
        if (!text.has_value()) {
            fail("missing fixture " + file.string());
            continue;
        }
        const std::vector<Diagnostic> diagnostics =
            lintSource(expected.file, *text);
        bool found = false;
        for (const Diagnostic &diag : diagnostics) {
            fired.insert(diag.rule);
            if (diag.rule == expected.rule)
                found = true;
        }
        if (!found)
            fail(std::string("rule ") + expected.rule +
                 " did not fire on violations/" + expected.file);
    }

    // Whole-tree fixtures: the project rules fire on their bad trees
    // and the clean tree (which uses every feature, allows included)
    // reports nothing.
    const auto expectTreeRule = [&](const char *tree, const char *rule) {
        const std::vector<Diagnostic> diagnostics =
            lintTree(fixtures / tree);
        bool found = false;
        for (const Diagnostic &diag : diagnostics) {
            fired.insert(diag.rule);
            if (diag.rule == rule)
                found = true;
        }
        if (!found)
            fail(std::string("rule ") + rule + " did not fire on " +
                 tree);
    };
    expectTreeRule("tree_bad_kernel", "kernel-registration");
    expectTreeRule("tree_bad_spec", "spec-doc");

    const std::vector<Diagnostic> clean = lintTree(fixtures / "tree_clean");
    for (const Diagnostic &diag : clean)
        fail("clean tree produced " + diag.rule + " at " + diag.file +
             ":" + std::to_string(diag.line) + ": " + diag.message);

    // Graph fixtures: each transitive rule fires on its violating
    // tree under the semantic pass...
    const auto expectGraphRule = [&](const char *tree,
                                     const char *rule) {
        const std::vector<Diagnostic> diagnostics =
            analyzeTree(fixtures / tree);
        bool found = false;
        for (const Diagnostic &diag : diagnostics) {
            fired.insert(diag.rule);
            if (diag.rule == rule)
                found = true;
        }
        if (!found)
            fail(std::string("rule ") + rule + " did not fire on " +
                 tree);
    };
    expectGraphRule("tree_bad_hot_transitive", "hot-path-transitive-alloc");
    expectGraphRule("tree_bad_taint", "determinism-taint");
    expectGraphRule("tree_bad_layering", "layering");
    expectGraphRule("tree_bad_fault", "fault-site-registry");

    // ... and the clean graph tree -- which exercises a hot region
    // with an alloc-free callee chain, an *unreachable* entropy
    // source, peer includes, a registered+exercised fault site, and
    // the raw-string/line-splice lexer regressions -- reports nothing
    // under either pass.
    for (const char *pass : {"lexical", "semantic"}) {
        const std::vector<Diagnostic> graph_clean =
            pass == std::string("lexical")
                ? lintTree(fixtures / "tree_graph_clean")
                : analyzeTree(fixtures / "tree_graph_clean");
        for (const Diagnostic &diag : graph_clean)
            fail("tree_graph_clean produced " + diag.rule + " (" +
                 pass + " pass) at " + diag.file + ":" +
                 std::to_string(diag.line) + ": " + diag.message);
    }

    for (const Rule &rule : kRules) {
        if (fired.find(rule.id) == fired.end())
            fail(std::string("rule ") + rule.id +
                 " never fired on any fixture");
    }
    if (ok)
        log << "splint self-test: all " << kRules.size()
            << " rules proven on fixtures\n";
    return ok;
}

} // namespace sp::splint
