#!/bin/sh
# The one line count simplicity PRs quote: per first-party crate (and per
# file for crates/stream/src) the lines before a file's first `#[cfg(test)]`,
# minus blank lines and lines that start with `//` (comments and rustdoc).
# Test files (`tests/`, `benches/`) are not counted.
#
#   bench/loc.sh [checkout]      (default: the checkout this script is in)
set -eu

cd "${1:-$(dirname "$0")/..}"

# Sum the rule over the files named on stdin; with `-v each=1` also print
# one line per file.
count() {
    xargs awk "$@" '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n[FILENAME]++; total++ }
        END {
            if (each) for (f in n) printf "  %6d  %s\n", n[f], f | "sort -k2"
            close("sort -k2")
            printf "%6d", total
        }'
}

for src in src crates/*/src; do
    printf '%s  %s\n' "$(find "$src" -name '*.rs' | count)" "$src"
done
echo
find crates/stream/src -name '*.rs' | count -v each=1
echo "  crates/stream/src"
