#!/usr/bin/env sh
# Documentation gate (part of CI job `source-checks`): fails when the
# docs drift from the tree.
#
#   1. README env table must be byte-identical to the generated
#      `mithra-lint --env-table .` output (the registry in
#      src/common/env_registry.hh is the single source of truth).
#   2. Every relative markdown link and anchor in the curated doc set
#      must resolve: the target file exists, and a `#fragment` matches
#      a real heading slug in the target.
#   3. Every src/ subsystem must be documented in DESIGN.md (at least
#      one `src/<name>` reference), and README must link the docs/
#      pages so they are discoverable.
#
# Usage: scripts/check_docs.sh [path/to/mithra-lint]
# The env-table check is skipped with a notice when no mithra-lint
# binary is found (minimal containers are never blocked; CI builds
# the tool and gets the real check).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

# Resolve a caller-supplied mithra-lint path before leaving the
# caller's directory — a relative path must not silently stop
# resolving (and skip the env-table check) after the cd below.
if [ "$#" -ge 1 ] && [ -n "$1" ]; then
    case $1 in
        /*) ;;
        *) set -- "$(pwd)/$1" ;;
    esac
fi

cd "$repo_root"

status=0
fail() {
    echo "check_docs: $1" >&2
    status=1
}

# ---------------------------------------------------------------- 1.
# README environment table vs the generated one.
lint=${1:-}
if [ -z "$lint" ]; then
    for candidate in build/tools/mithra-lint/mithra-lint \
                     build-*/tools/mithra-lint/mithra-lint \
                     build-lint/mithra-lint; do
        if [ -x "$candidate" ]; then
            lint=$candidate
            break
        fi
    done
fi

if [ -z "$lint" ] || [ ! -x "$lint" ]; then
    echo "check_docs: mithra-lint not built; skipping env-table check" >&2
else
    generated=$("$lint" --env-table .)
    # The README table is the contiguous pipe-table block starting at
    # the same header row the generator emits.
    in_readme=$(awk '
        /^\| variable \| values \(default\) \| effect \|$/ { on = 1 }
        on && /^\|/ { print; next }
        on { exit }
    ' README.md)
    if [ "$generated" != "$in_readme" ]; then
        fail "README env table is stale — regenerate with \`$lint --env-table .\` and paste over the table under '## Environment variables'"
        printf '%s\n' "$generated" > /tmp/check_docs_env_table.$$ 2>/dev/null || true
        printf '%s\n' "$in_readme" | diff -u - /tmp/check_docs_env_table.$$ >&2 || true
        rm -f /tmp/check_docs_env_table.$$
    fi
fi

# ---------------------------------------------------------------- 2.
# Relative links and anchors in the curated doc set.
docs="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md"
for f in docs/*.md; do
    docs="$docs $f"
done

# GitHub-style heading slug: lowercase, backticks and punctuation
# stripped (hyphens/underscores kept), spaces to hyphens.
slugs_of() {
    sed -n 's/^#\{1,6\} //p' "$1" | awk '{
        gsub(/`/, "")
        line = tolower($0)
        gsub(/[^a-z0-9 _-]/, "", line)
        gsub(/ /, "-", line)
        print line
    }'
}

for doc in $docs; do
    [ -f "$doc" ] || continue
    doc_dir=$(dirname "$doc")
    # Inline links only: every `](target)` occurrence outside fenced
    # code blocks, one target per line.
    targets=$(awk '
        /^```/ { fence = !fence; next }
        fence  { next }
        {
            line = $0
            while (match(line, /\]\([^)]+\)/)) {
                print substr(line, RSTART + 2, RLENGTH - 3)
                line = substr(line, RSTART + RLENGTH)
            }
        }
    ' "$doc")
    for target in $targets; do
        case $target in
            *://*|mailto:*) continue ;;
        esac
        anchor=${target#*#}
        path=${target%%#*}
        if [ "$anchor" = "$target" ]; then
            anchor=""
        fi
        if [ -n "$path" ]; then
            resolved="$doc_dir/$path"
            if [ ! -e "$resolved" ]; then
                fail "$doc: broken relative link \`$target' ($resolved does not exist)"
                continue
            fi
        else
            resolved="$doc"
        fi
        if [ -n "$anchor" ]; then
            case $resolved in
                *.md)
                    if ! slugs_of "$resolved" | grep -qxF "$anchor"; then
                        fail "$doc: anchor \`#$anchor' does not match any heading in $resolved"
                    fi
                    ;;
            esac
        fi
    done
done

# ---------------------------------------------------------------- 3.
# Every src/ subsystem is documented, and the docs/ pages are
# reachable from the README.
for dir in src/*/; do
    name=$(basename "$dir")
    if ! grep -q "src/$name" DESIGN.md; then
        fail "DESIGN.md has no section covering src/$name — document the subsystem (see docs/ARCHITECTURE.md 'Where to change what')"
    fi
done

for page in docs/PLUGINS.md docs/ARCHITECTURE.md; do
    if ! grep -q "$page" README.md; then
        fail "README.md does not link $page"
    fi
done

if [ "$status" -eq 0 ]; then
    echo "check_docs: docs are in sync"
fi
exit "$status"
