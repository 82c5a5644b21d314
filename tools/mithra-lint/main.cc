/**
 * @file
 * mithra-lint driver: `mithra-lint [--env-table] [<repo-root>]` runs
 * every rule over the tree (default root `.`) and exits nonzero on any
 * finding, including a scanned root that is missing or empty.
 * `--env-table` prints the README environment table regenerated from
 * src/common/env_registry.hh and exits. See lint.hh for the rule
 * catalog.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "lint.hh"

int
main(int argc, char **argv)
{
    using namespace mithra::lint;

    bool envTable = false;
    std::string root = ".";
    for (int arg = 1; arg < argc; ++arg) {
        const std::string word = argv[arg];
        if (word == "--env-table") {
            envTable = true;
        } else if (!word.empty() && word[0] == '-') {
            std::fprintf(stderr,
                         "usage: mithra-lint [--env-table] "
                         "[<repo-root>]\n"
                         "Checks <root>/{src,bench,tests,include,tools} "
                         "for MITHRA invariant violations; exits 1 on "
                         "any finding.\n");
            return 2;
        } else {
            root = word;
        }
    }

    if (envTable) {
        const std::string path = root + "/src/common/env_registry.hh";
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "mithra-lint: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const EnvRegistry registry = parseEnvRegistry(buffer.str());
        if (registry.entries.empty()) {
            std::fprintf(stderr,
                         "mithra-lint: no registry entries in %s\n",
                         path.c_str());
            return 1;
        }
        std::fputs(renderEnvTable(registry).c_str(), stdout);
        return 0;
    }

    const TreeReport report = lintTree(root);
    for (const Diagnostic &d : report.diagnostics)
        std::fprintf(stderr, "%s\n", formatDiagnostic(d).c_str());

    if (!report.diagnostics.empty()) {
        std::fprintf(stderr,
                     "mithra-lint: %zu finding(s) in %zu file(s) "
                     "scanned\n",
                     report.diagnostics.size(), report.fileCount);
        return 1;
    }
    std::fprintf(stderr, "mithra-lint: %zu file(s) clean\n",
                 report.fileCount);
    return 0;
}
