#!/bin/sh
# The counts simplicity PRs quote, per first-party crate (and per file for
# crates/stream/src), over the lines before a file's first `#[cfg(test)]`:
#
#   lines  the non-blank lines that do not start with `//` (comments and
#          rustdoc are not counted);
#   pub    the public names: `pub` items (fn, struct, enum, trait, type,
#          const, static) and `pub` fields. `pub(crate)`, `pub use` and
#          `pub mod` are not counted.
#   knobs  the independently settable options: the `pub` fields of structs
#          named `*Config`, `WatchChurn` and `QueueModel`.
#
# Test files (`tests/`, `benches/`) are not counted. The last line is the
# workspace total.
#
#   bench/loc.sh [checkout]      (default: the checkout this script is in)
set -eu

cd "${1:-$(dirname "$0")/..}"

# Count the three columns over the files named on stdin; with `-v each=1` also
# print one line per file.
count() {
    xargs awk "$@" '
        FNR == 1 { in_tests = 0; knob_struct = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n[FILENAME]++; lines++ }
        /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|type|const|static)[[:space:]]/ ||
        /^[[:space:]]*pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:/ {
            p[FILENAME]++; names++
            if (knob_struct) { k[FILENAME]++; knobs++ }
        }
        /^[[:space:]]*pub[[:space:]]+struct[[:space:]]+([A-Za-z0-9_]*Config|WatchChurn|QueueModel)[[:space:]]*\{/ { knob_struct = 1 }
        /^[[:space:]]*}/ { knob_struct = 0 }
        END {
            if (each) for (f in n) printf "  %6d  %5d  %5d  %s\n", n[f], p[f], k[f], f | "sort -k4"
            close("sort -k4")
            printf "%6d  %5d  %5d", lines, names, knobs
        }'
}

echo ' lines    pub  knobs'
for src in src crates/*/src; do
    printf '%s  %s\n' "$(find "$src" -name '*.rs' | count)" "$src"
done
printf '%s  total\n' "$(find src crates/*/src -name '*.rs' | count)"
echo
find crates/stream/src -name '*.rs' | count -v each=1
echo "  crates/stream/src"
