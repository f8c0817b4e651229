#!/bin/sh
# The counts simplicity PRs quote, per first-party crate (and per file for
# crates/stream/src), over the lines before a file's first `#[cfg(test)]`:
#
#   lines       the non-blank lines that do not start with `//` (comments and
#               rustdoc are not counted);
#   pub         the public names: `pub` items (fn, struct, enum, trait, type,
#               const, static) and `pub` fields. `pub(crate)`, `pub use` and
#               `pub mod` are not counted.
#   knobs       the independently settable options: the `pub` fields of
#               structs named `*Config`, `WatchChurn` and `QueueModel`.
#   unexported  the public names (as counted under `pub`) that no `.rs` file
#               outside their crate mentions as a word. Outside a crate is
#               every other crate's `src/`, every `tests/` and `benches/`
#               directory (the crate's own included), `src/bin/` (the
#               crate's own included), `examples/` and `e2ebench/`. A name
#               counts as mentioned wherever the word appears, comments too,
#               so the column is a floor on what could be `pub(crate)`.
#
# Test files (`tests/`, `benches/`) are not counted. The last line is the
# workspace total.
#
#   bench/loc.sh [-l | -k] [checkout]  (default: the checkout this script is in)
#
# `-l` prints the unexported names instead, one `file:line name` a line; `-k`
# prints the knobs, one `file:line Struct.field` a line.
set -eu

list=
case "${1:-}" in
-l | -k)
    list=$1
    shift
    ;;
esac
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

# `file:line Struct.field` for each knob of the files named on stdin.
knobs() {
    xargs awk '
        FNR == 1 { in_tests = 0; knob_struct = "" }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        knob_struct != "" && match($0, /^[[:space:]]*pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:/) {
            field = substr($0, RSTART, RLENGTH)
            sub(/[[:space:]]*:$/, "", field)
            sub(/.*[[:space:]]/, "", field)
            print FILENAME ":" FNR, knob_struct "." field
        }
        match($0, /^[[:space:]]*pub[[:space:]]+struct[[:space:]]+([A-Za-z0-9_]*Config|WatchChurn|QueueModel)[[:space:]]*\{/) {
            knob_struct = substr($0, RSTART, RLENGTH)
            sub(/[[:space:]]*\{$/, "", knob_struct)
            sub(/.*[[:space:]]/, "", knob_struct)
        }
        /^[[:space:]]*}/ { knob_struct = "" }'
}

# Every `.rs` file that can name another crate's items.
all_sources() {
    find src crates examples tests e2ebench -name target -prune -o -name '*.rs' -print
}

# `file:line name` for each public name of the crate whose `src` directory is
# $1 that no file outside the crate mentions.
unexported_in() {
    all_sources | awk -v src="$1/" 'index($0, src) != 1 || index($0, src "bin/") == 1' |
        xargs cat | tr -c 'A-Za-z0-9_' '\n' | sort -u >"$words"
    find "$1" -name '*.rs' | xargs awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) ||
        match($0, /^[[:space:]]*pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/[[:space:]]*:$/, "", name)
            sub(/.*[[:space:]]/, "", name)
            print FILENAME ":" FNR, name
        }' |
        awk 'NR == FNR { seen[$0] = 1; next } !($2 in seen)' "$words" -
}

words=$(mktemp)
trap 'rm -f "$words"' EXIT

if [ "$list" = -k ]; then
    find src crates/*/src -name '*.rs' | sort | knobs
    exit 0
fi
if [ "$list" = -l ]; then
    for src in src crates/*/src; do
        unexported_in "$src"
    done
    exit 0
fi

total=0
echo ' lines    pub  knobs  unexported'
for src in src crates/*/src; do
    u=$(unexported_in "$src" | wc -l)
    total=$((total + u))
    printf '%s  %10d  %s\n' "$(find "$src" -name '*.rs' | count)" "$u" "$src"
done
printf '%s  %10d  total\n' "$(find src crates/*/src -name '*.rs' | count)" "$total"
echo
find crates/stream/src -name '*.rs' | count -v each=1
echo "  crates/stream/src"
