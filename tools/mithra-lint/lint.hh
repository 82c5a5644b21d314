/**
 * @file
 * mithra-lint — the in-tree source checker for MITHRA-specific
 * invariants.
 *
 * The library's headline claim is a *statistical guarantee*, and that
 * guarantee rests on properties no compiler flag checks for us:
 * deterministic randomness, a double-only statistics substrate, a
 * layered architecture and a declared environment surface. This
 * checker scans the tree with one lexer (lex.hh) and turns violations
 * of those properties into hard errors. Determinism properties that a
 * dynamic gate measures (the tsan label, the thread-count identity
 * tests) are left to those gates; DESIGN.md §8 carries the seeded-bug
 * table behind that split.
 *
 * Rule catalog (rule ids are what `mithra-lint: allow(<rule>)`
 * annotations name):
 *
 *  no-rand           std::rand / srand / rand_r / drand48: unseeded or
 *                    process-global generators break reproducibility.
 *                    Use common/rng.hh (Rng, rngStream).
 *  no-random-device  std::random_device is nondeterministic by design;
 *                    only common/rng.* may touch entropy sources.
 *  no-time-seed      argless time() / time(nullptr) / time(0): wall
 *                    clock seeding makes runs unreproducible.
 *  no-unordered      unordered_* containers iterate in a hash-dependent
 *                    order, which silently varies across libstdc++
 *                    versions; reduction paths must use ordered
 *                    containers. Lookup-only caches may annotate.
 *  no-float-in-stats src/stats is a double-only substrate (the
 *                    Clopper–Pearson machinery is validated at double
 *                    precision); float types or literals are banned.
 *  pragma-once       headers open with `#pragma once` (before any
 *                    non-comment content).
 *  no-iostream       library code reports through common/logging.hh;
 *                    iostream / fprintf elsewhere bypasses the
 *                    inform() gate benchmarks rely on.
 *  no-naked-assert   assert() vanishes under NDEBUG with no message;
 *                    use MITHRA_ASSERT / MITHRA_EXPECTS /
 *                    MITHRA_ENSURES from common/contracts.hh.
 *  no-raw-timing     std::chrono / clock_gettime / gettimeofday /
 *                    timespec_get / clock() in library code: ad-hoc
 *                    timing bypasses the telemetry layer and leaks
 *                    nondeterministic values into results. Time through
 *                    MITHRA_SPAN (telemetry/span.hh).
 *  no-intrinsics     SIMD intrinsic headers (<immintrin.h> and kin),
 *                    vector types (__m128/__m256/__m512) and _mm*
 *                    intrinsic calls are contained in
 *                    src/common/kernels/ — everything else calls the
 *                    runtime-dispatched kernels:: API, which keeps all
 *                    backends bitwise identical and centrally tested.
 *  no-keyword-identifier
 *                    `final' and `override' used as identifiers
 *                    (`const auto final = ...'): they are contextual
 *                    keywords, and naming variables after them
 *                    confuses readers, tooling and future
 *                    refactorings. Virt-specifier and class-head
 *                    positions (`void f() override', `class X final')
 *                    are of course allowed.
 *  no-dlopen         dlopen / dlsym / dlclose / dlerror and <dlfcn.h>:
 *                    runtime code loading is confined to src/plugin/
 *                    (the sanctioned loader), so the rest of the
 *                    library stays statically analyzable and the
 *                    plugin trust boundary stays in one place.
 *  no-socket         <sys/socket.h>, <netinet/...>, <arpa/...> and
 *                    <poll.h>: socket I/O is confined to src/service/
 *                    (the serving shell), so network-dependent values
 *                    cannot reach the deterministic core.
 *  c-abi-header      include/ headers are the public C plugin ABI and
 *                    must stay C89-clean: classic include guards (not
 *                    `#pragma once`), block comments (no `//`), and
 *                    no C++-only keywords outside the `__cplusplus`
 *                    guard. `plugin_header_c89` (ctest) is the ground
 *                    truth; this rule catches violations at lint speed
 *                    with better messages.
 *
 * Which token rules apply depends on the repo-relative path (see
 * policyForPath): the determinism rules cover src/, bench/ and tests/;
 * the library-hygiene rules (including no-keyword-identifier,
 * no-dlopen and no-socket) cover src/ only; the float ban covers
 * src/stats only; the raw timing ban covers src/ only (bench/ and
 * tests/ may time freely); the intrinsics ban covers src/, bench/ and
 * tests/; the c-abi-header rules cover the .h files under include/
 * (where pragma-once does NOT apply — the ABI header is shared with
 * plain C). common/rng.* is exempt from no-random-device,
 * common/logging.* from no-iostream, src/telemetry/ and src/service/
 * from no-raw-timing, src/common/kernels/ from no-intrinsics,
 * src/plugin/ from no-dlopen and src/service/ from no-socket — they
 * are the sanctioned implementations.
 *
 * Tree rules run over src/, bench/, tools/ and tests/:
 *
 *  layering          an include crossing layers must follow a declared
 *                    edge of tools/mithra-lint/layers.txt (explicit,
 *                    not transitive); every file maps to exactly one
 *                    layer. `include-cycle` reports file-level cycles
 *                    with the full chain; `layer-spec` a malformed or
 *                    cyclic spec.
 *  env-registry      raw getenv outside src/common/env_registry.hh;
 *                    a MITHRA_* name handed to an accessor (or to
 *                    setenv in tests) that the registry does not
 *                    declare; and drift between the registry and
 *                    README.md's environment table, in both
 *                    directions (`mithra-lint --env-table`
 *                    regenerates the table).
 *
 * A `// mithra-lint: allow(<rule>)` comment suppresses that rule on
 * its own line and the following line.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mithra::lint
{

/** One rule violation, anchored to a file and line. */
struct Diagnostic
{
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

/** Which rule groups apply to a file, derived from its path. */
struct PathPolicy
{
    /** rand / random_device / time rules (src, bench, tests). */
    bool determinism = false;
    /** The library rules: unordered, iostream, assert, keyword,
     *  timing, dlopen and socket (src only). */
    bool libraryHygiene = false;
    /** float ban (src/stats only). */
    bool doubleOnly = false;
    /** `#pragma once` requirement (every header scanned). */
    bool headerHygiene = false;
    /** Sanctioned entropy implementation (common/rng.*). */
    bool rngImpl = false;
    /** Sanctioned output implementation (common/logging.*). */
    bool loggingImpl = false;
    /** Sanctioned wall-clock homes (src/telemetry/, src/service/). */
    bool timingImpl = false;
    /** Sanctioned SIMD intrinsics home (src/common/kernels/). */
    bool kernelsImpl = false;
    /** Sanctioned dlopen/dlsym home (src/plugin/). */
    bool pluginImpl = false;
    /** Sanctioned socket home (src/service/). */
    bool serviceImpl = false;
    /** C89 plugin-ABI header rules (.h files under include/). */
    bool cAbiHeader = false;
};

/** Derive the rule policy from a repo-relative path. */
PathPolicy policyForPath(const std::string &path);

/**
 * Lint one translation unit. `path` selects the policy and labels the
 * diagnostics; `source` is the file content. Returns all violations in
 * line order.
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   const std::string &source);

/** Lint a file on disk (reads it, then defers to lintSource). */
std::vector<Diagnostic> lintFile(const std::string &path);

/** Render one diagnostic as "file:line: error: [rule] message". */
std::string formatDiagnostic(const Diagnostic &diagnostic);

/** One translation unit handed to the tree rules. `path` is repo-root
 *  relative with forward slashes; `display` (optional) is what
 *  diagnostics print — defaults to `path`. */
struct SourceFile
{
    std::string path;
    std::string source;
    std::string display;

    const std::string &shown() const
    {
        return display.empty() ? path : display;
    }
};

// ---------------------------------------------------------- layering

/** Parsed layers.txt. */
struct LayerSpec
{
    struct Layer
    {
        std::string name;
        std::vector<std::string> prefixes; ///< path prefixes, slashed
        std::vector<std::string> allowed;  ///< layers it may include
    };
    std::vector<Layer> layers;

    /** Index of the layer owning `path` (longest prefix match), or
     *  SIZE_MAX when no layer matches. */
    std::size_t layerOf(const std::string &path) const;

    /** Whether layer `from` may include layer `to` (reflexive). */
    bool edgeAllowed(std::size_t from, std::size_t to) const;
};

/**
 * Parse the layers.txt grammar:
 *
 *     # comment
 *     layer <name> <path-prefix> [<path-prefix>...]
 *     allow <name> -> <dep> [<dep>...]
 *
 * Syntax errors and spec-level cycles (the `allow` edges must form a
 * DAG) are appended to `diagnostics` under rule `layer-spec`, anchored
 * to `specPath`.
 */
LayerSpec parseLayerSpec(const std::string &specPath,
                         const std::string &text,
                         std::vector<Diagnostic> &diagnostics);

/**
 * Check every in-tree include edge against the spec and the include
 * graph for file-level cycles. Include targets are resolved against
 * the including file's directory, then `src/`, the repo root, and
 * tools/mithra-lint; unresolved includes are treated as external and
 * ignored.
 */
std::vector<Diagnostic> checkLayering(const LayerSpec &spec,
                                      const std::vector<SourceFile> &files);

// ------------------------------------------------------ env registry

/** The env-var registry as parsed from src/common/env_registry.hh. */
struct EnvRegistry
{
    struct Entry
    {
        std::string name;
        std::string values;
        std::string fallback;
        std::string doc;
    };
    std::vector<Entry> entries;

    bool registered(const std::string &name) const;
};

/** Extract the `registry` initializer entries from the header. */
EnvRegistry parseEnvRegistry(const std::string &source);

/** Env-var use rules over one TU. */
std::vector<Diagnostic> checkEnvUse(const EnvRegistry &registry,
                                    const SourceFile &file);

/** Registry <-> README environment-table consistency. */
std::vector<Diagnostic> checkReadme(const EnvRegistry &registry,
                                    const std::string &readmePath,
                                    const std::string &readmeText);

/** Render the README environment table from the registry. */
std::string renderEnvTable(const EnvRegistry &registry);

// ------------------------------------------------------------ driver

struct TreeReport
{
    std::vector<Diagnostic> diagnostics;
    std::size_t fileCount = 0;
};

/**
 * Run every rule over the tree at `root`: the token rules over
 * src/, bench/, tests/ and include/, the layering and env-registry
 * rules over src/, bench/, tools/ and tests/ (spec at
 * tools/mithra-lint/layers.txt, registry at
 * src/common/env_registry.hh, table in README.md). A scanned root that
 * is missing or holds no source files is itself a diagnostic, so a
 * mistyped root never passes. Diagnostics come back sorted by (file,
 * line).
 */
TreeReport lintTree(const std::string &root);

} // namespace mithra::lint
