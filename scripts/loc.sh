#!/usr/bin/env bash
# Counts the lines of Rust tracked at a revision, split into test and
# non-test lines, by one rule:
#
#   * files: every tracked `*.rs` at REV (default HEAD), read with
#     `git show REV:path`, so no checkout is needed; files under
#     `benchmark/` (its own workspace) and `crates/support/` (stand-ins
#     for external crates) are left out;
#   * test lines: every line of a file with a `tests/` directory in its
#     path, and in any other file every line from the first line that
#     reads exactly `#[cfg(test)]` and is followed by a `mod NAME {` line
#     (an inline test module) to the end of the file;
#   * non-test lines: all the others. Blank and comment lines count.
#
# Usage: scripts/loc.sh [REV]
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev=${1:-HEAD}
sha=$(git rev-parse --short "$rev^{commit}")
files=$(git ls-tree -r --name-only "$sha" | grep '\.rs$' | grep -vE '^(benchmark|crates/support)/' || true)
test_lines=0
nontest_lines=0
n_files=0
for f in $files; do
    n_files=$((n_files + 1))
    read -r t n < <(git show "$sha:$f" | awk -v whole="$([[ /$f == */tests/* ]] && echo 1 || echo 0)" '
        { line[NR] = $0 }
        END {
            cut = NR + 1
            if (whole) cut = 1
            else for (i = 1; i < NR; i++)
                if (line[i] == "#[cfg(test)]" && line[i + 1] ~ /^mod [A-Za-z_][A-Za-z0-9_]* \{/) { cut = i; break }
            print NR - cut + 1, cut - 1
        }')
    test_lines=$((test_lines + t))
    nontest_lines=$((nontest_lines + n))
done
printf 'rev %s: %d files\n' "$sha" "$n_files"
printf 'non-test %7d\n' "$nontest_lines"
printf 'test     %7d\n' "$test_lines"
printf 'total    %7d\n' "$((nontest_lines + test_lines))"
