#!/bin/sh
# What a change does to the two dumps bench/determinism.sha256 holds (the
# digest): builds both checkouts, runs `determinism_check` and
# `telemetry_dump` on each, and for each pair of outputs prints
# "identical", or else the removed and added lines grouped by the field
# name each line starts with. A line inside a block the diff removes or adds
# whole counts under the field that opens the block, so a dropped
# `detection: RotationDetection { .. }` is one group, not one per field
# inside it.
#
#   bench/digest_diff.sh <parent-checkout> [change-checkout]
#
# The change defaults to the checkout this script is in. Both sides' dumps
# and the full diffs (`diff --minimal`, which aligns a removed block whole)
# are kept in $OUT (default: a fresh temporary directory). Last, it prints
# the change's `sha256sum` lines: bench/determinism.sha256 as the change
# would regenerate it.
set -eu

[ $# -ge 1 ] || { sed -n '2,17p' "$0"; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "${2:-$(dirname "$0")/..}" && pwd)
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"

dump() { # side-name checkout
    echo "building $2" >&2
    (cd "$2" && cargo build --release --offline --quiet --bin determinism_check --bin telemetry_dump)
    for bin in determinism_check telemetry_dump; do
        (cd "$2" && cargo run --release --offline --quiet --bin "$bin") >"$out/$bin.$1.txt"
    done
}
dump parent "$parent"
dump change "$change"

# Group the `<` (removed) and `>` (added) lines of a normal-format diff on
# stdin by field name, attributing each line inside a block its run opened
# to the field that opened it.
group='
import collections, re, sys

field = re.compile(r"\s*([a-z_][a-z0-9_]*): ")
counts = {"removed": collections.Counter(), "added": collections.Counter()}
side, depth, owner = None, 0, None
for line in sys.stdin:
    mark = line[:2]
    if mark not in ("< ", "> "):
        side, depth = None, 0  # a hunk header or `---` ends a run
        continue
    this = "removed" if mark == "< " else "added"
    if this != side:
        side, depth = this, 0
    text = line[2:].rstrip("\n")
    stripped = text.strip()
    if stripped[:1] in ("}", "]", ")") and depth > 0:
        depth -= 1
        counts[side][owner] += 1
        continue
    if depth == 0:
        named = field.match(text)
        owner = named.group(1) if named else "(no field)"
    counts[side][owner] += 1
    if stripped.rstrip(",")[-1:] in ("{", "[", "("):
        depth += 1
for side in ("removed", "added"):
    print(f"  {side} {sum(counts[side].values())}")
    for name, n in sorted(counts[side].items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"    {n:8d}  {name}")
'

for bin in determinism_check telemetry_dump; do
    if cmp -s "$out/$bin.parent.txt" "$out/$bin.change.txt"; then
        echo "$bin: identical"
    else
        echo "$bin: differs (full diff in $out/$bin.diff)"
        diff --minimal "$out/$bin.parent.txt" "$out/$bin.change.txt" >"$out/$bin.diff" || true
        python3 -c "$group" <"$out/$bin.diff"
    fi
done

cp "$out/determinism_check.change.txt" "$out/determinism-run1.txt"
cp "$out/telemetry_dump.change.txt" "$out/telemetry-run1.txt"
echo "bench/determinism.sha256 for the change:"
(cd "$out" && sha256sum determinism-run1.txt telemetry-run1.txt)
