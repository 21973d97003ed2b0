/**
 * @file
 * splint -- the project-specific lint layer.
 *
 * Generic tooling (clang-tidy, the sanitizer matrix) cannot see this
 * codebase's contracts, so splint enforces them as build-failing
 * diagnostics:
 *
 *   no-raw-thread       all parallelism goes through
 *                       sp::common::ThreadPool; a raw std::thread /
 *                       std::async / pthread anywhere else silently
 *                       escapes the SP_JOBS bound and the
 *                       bit-identical-to-serial execution contract.
 *   no-nondeterminism   simulation paths (src/sys, src/cache,
 *                       src/data) must be seed-deterministic: no
 *                       rand(), std::random_device, wall clocks, or
 *                       clock-seeded RNGs -- the golden-output and
 *                       determinism harnesses byte-compare results.
 *   hot-path-alloc      regions bracketed by
 *                       `// splint:hot-path-begin(<name>)` ...
 *                       `// splint:hot-path-end` (the controller's
 *                       classify loop, the probe kernels) must not
 *                       allocate, do stream IO, or plant an
 *                       SP_FAULT_POINT (even disarmed, a fault site
 *                       is a branch per call).
 *   hot-path-marker     the markers themselves must pair up.
 *   io-status           src/data reports environmental failures as
 *                       sp::Status / sp::Result (common/status.h),
 *                       never panic/exit/terminate (those are for
 *                       programmer errors, and need a justified
 *                       allow); and a Status-returning IO call
 *                       (saveTo/tryReplay/tryMapped/tryOpen) anywhere
 *                       in src/ must not be discarded as a bare
 *                       statement.
 *   kernel-registration every src/cache/probe_kernel_<arch>.cc TU
 *                       must be covered by the kernel-equivalence
 *                       harness's registration list.
 *   spec-doc            every spec key (a row of src/sys/spec.cc's
 *                       key table, or a key compared in
 *                       src/data/workload.cc) must be documented in
 *                       README.md.
 *
 * On top of the lexical rules, analyzeTree() runs the semantic pass:
 * a tree-wide symbol index (splint/index.h) feeds a call graph and an
 * include graph (splint/graph.h), and four transitive rules reason
 * across translation units:
 *
 *   hot-path-transitive-alloc  functions reachable from a call inside
 *                       a hot-path region must be allocation-free;
 *                       diagnostics carry the reachability trace.
 *   determinism-taint   nondeterminism sources outside the simulation
 *                       dirs must be unreachable from functions
 *                       defined in src/{sys,cache,data}.
 *   layering            includes follow the module dependency order
 *                       common -> {cache,data,emb,tensor} ->
 *                       {core,sim,nn,metrics} -> sys, and the include
 *                       graph is acyclic.
 *   fault-site-registry every SP_FAULT_POINT("site") literal is
 *                       registered in src/common/fault.cc, has a call
 *                       site, and is exercised by the FaultMatrix
 *                       chaos test.
 *
 * Violations are suppressed per line with
 * `// splint:allow(<rule>): <justification>` on the same or the
 * preceding line; the justification is mandatory (allow-justification
 * fires otherwise) and the rule id must exist (allow-unknown-rule).
 * The transitive alloc/nondet rules also accept an allow for their
 * direct counterpart (hot-path-alloc, no-nondeterminism), so one
 * directive covers both views of a site.
 *
 * The rule table is data (id, severity, summary, fixit); the scanner
 * (splint/lexer.h) strips comments and string literals -- including
 * raw strings and line splices -- before matching so prose about
 * std::thread never trips the lint.
 */

#ifndef SP_TOOLS_SPLINT_H
#define SP_TOOLS_SPLINT_H

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace sp::splint
{

struct SymbolIndex; // splint/index.h

enum class Severity
{
    Error,
    Warning,
};

/** Spelling used in text and JSON reports. */
const char *severityName(Severity severity);

/** One row of the rule table. */
struct Rule
{
    const char *id;       //!< stable diagnostic id, e.g. "no-raw-thread"
    Severity severity;    //!< errors fail the splint_tree gate
    const char *summary;  //!< what the rule enforces
    const char *fixit;    //!< how to fix (or legitimately allow) a hit
};

/** The full rule table, in reporting order. */
const std::vector<Rule> &rules();

/** Look up a rule by id; nullptr when unknown. */
const Rule *findRule(const std::string &id);

/** One reported violation. */
struct Diagnostic
{
    std::string file;     //!< root-relative path (forward slashes)
    size_t line = 0;      //!< 1-based; 0 for whole-project rules
    std::string rule;     //!< rule id
    Severity severity = Severity::Error;
    std::string message;
    std::string fixit;
};

/**
 * Run every line-scoped rule over one file. `path` must be the
 * root-relative path (e.g. "src/sys/spec.cc"); it decides which rules
 * apply. Project-wide rules (kernel-registration, spec-doc) only run
 * from lintTree.
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   const std::string &text);

/**
 * Lint the tree rooted at `root`: every .cc/.h/.cpp under src/,
 * bench/ and tests/ through the line rules, then the project-wide
 * rules. Missing subtrees are skipped (fixture trees are partial).
 */
std::vector<Diagnostic> lintTree(const std::filesystem::path &root);

/**
 * Run the semantic pass over the tree rooted at `root`: build the
 * symbol index (splint/index.h) and evaluate the transitive rules
 * (hot-path-transitive-alloc, determinism-taint, layering,
 * fault-site-registry) over its graphs.
 */
std::vector<Diagnostic> analyzeTree(const std::filesystem::path &root);

/** Same, over an index the caller already built (shared with
 *  --dump-graph so one invocation indexes the tree once). */
std::vector<Diagnostic> analyzeIndex(const std::filesystem::path &root,
                                     const SymbolIndex &index);

/** Canonical report order: (file, line, rule, message). Applied by
 *  lintTree/analyzeTree so output is byte-stable across filesystem
 *  traversal orders. */
void sortDiagnostics(std::vector<Diagnostic> &diagnostics);

/** True if any diagnostic is an error (the gate condition). */
bool hasErrors(const std::vector<Diagnostic> &diagnostics);

/** Human-readable report, one diagnostic per line plus a summary. */
std::string toText(const std::vector<Diagnostic> &diagnostics);

/**
 * Machine-readable report:
 * {"tool":"splint","schema_version":2,"count":N,"violations":
 * [{file,line,rule,severity,message,fixit}...]} -- the schema
 * asserted by the JSON report test.
 */
std::string toJson(const std::vector<Diagnostic> &diagnostics);

/**
 * Prove every rule fires: lint the committed fixture files under
 * `fixtures` (bad ones must produce exactly their expected rules,
 * clean ones nothing) and check each table rule triggered at least
 * once. Failures are described on `log`; returns overall success.
 */
bool selfTest(const std::filesystem::path &fixtures, std::ostream &log);

} // namespace sp::splint

#endif // SP_TOOLS_SPLINT_H
