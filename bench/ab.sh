#!/bin/sh
# Interleaved parent/change A/B through the BENCHMARK.json command — the
# acceptance rule of choosing-metrics §8, as one script instead of a loop
# everyone re-types.
#
#   bench/ab.sh <parent-checkout> <change-checkout> [pairs] [seconds]
#
# Both checkouts are built with the BENCHMARK.json command, then every
# workload runs `pairs` (default 10) interleaved pairs of `seconds` (default:
# BENCHMARK.json's run_seconds) with a fresh seed per pair and the first side
# alternating. Per workload x end-to-end metric it prints both medians and
# quartiles, the gap (positive = the change is worse) against the metric's
# bound with a verdict, the pairs the change won, and the failed ops of each
# side. The verdict is WORSE when the gap exceeds the bound; otherwise it is
# unresolved when the parent's quartile spread, relative to its median, is
# wider than the bound (the runs cannot tell a move of the bound's size from
# noise) and not every change run beats every parent run; otherwise ok.
# Every run's JSON line is kept in $AB_OUT (default: a fresh temporary
# directory), and so is trajectory.jsonl: one row per workload with both
# checkouts' short hashes, the pairs and seconds, both medians, the change's
# pair wins and the verdict of each end-to-end metric, and each side's failed
# ops — the rows bench/trajectory.jsonl keeps per landed change.
#
# Environment: AB_WORKLOADS="steady_watch tenants_64" restricts the workloads,
# AB_SEED (default 1000) is the first pair's seed, AB_TRACE=1 runs the traced
# pass instead (the table then lists the per-layer metrics, without bounds).
set -eu

[ $# -ge 2 ] || { sed -n '2,26p' "$0"; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
spec="$change/BENCHMARK.json"
read_spec='
import json, shlex, sys
spec = json.load(open(sys.argv[1]))
print("command=" + shlex.quote(" ".join(spec["command"])))
print("run_seconds=" + str(spec["run_seconds"]))
print("all_workloads=" + shlex.quote(" ".join(w["name"] for w in spec["workloads"])))
'
eval "$(python3 -c "$read_spec" "$spec")"
seconds=${4:-$run_seconds}
workloads=${AB_WORKLOADS:-$all_workloads}
seed=${AB_SEED:-1000}
trace=${AB_TRACE:-0}
out=${AB_OUT:-$(mktemp -d)}
mkdir -p "$out"

# The command is `cargo run ... --`; the same flags build without running.
build=$(printf '%s' "$command" | sed 's/^cargo run /cargo build /; s/ --$//')
for side in "$parent" "$change"; do
    echo "building $side" >&2
    (cd "$side" && $build)
done

run() { # side-name checkout workload seed
    (cd "$2" && $command --workload "$3" --seed "$4" --seconds "$seconds" --trace "$trace") \
        | tail -n 1 >>"$out/$3.$1.jsonl"
}

for workload in $workloads; do
    : >"$out/$workload.parent.jsonl"
    : >"$out/$workload.change.jsonl"
    pair=0
    while [ "$pair" -lt "$pairs" ]; do
        s=$((seed + pair))
        echo "$workload pair $((pair + 1))/$pairs seed $s" >&2
        if [ $((pair % 2)) -eq 0 ]; then
            run parent "$parent" "$workload" "$s"
            run change "$change" "$workload" "$s"
        else
            run change "$change" "$workload" "$s"
            run parent "$parent" "$workload" "$s"
        fi
        pair=$((pair + 1))
    done
done

report='
import json, statistics, sys

spec, out, trace = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3]
hashes, seconds, workloads = dict(parent=sys.argv[4], change=sys.argv[5]), sys.argv[6], sys.argv[7:]
metrics = spec["per_layer" if trace == "1" else "end_to_end"]
trajectory = open(f"{out}/trajectory.jsonl", "w")

def runs(workload, side):
    return [json.loads(line) for line in open(f"{out}/{workload}.{side}.jsonl") if line.strip()]

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), q1, q3

def compare(metric, parent, change):
    # Both sides (median, q1, q3), the pair wins of the change and the
    # verdict against the bound of the metric ("" without one), or None.
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    if any(name not in r["metrics"] for r in parent + change):
        return None
    a = [r["metrics"][name]["value"] for r in parent]
    b = [r["metrics"][name]["value"] for r in change]
    (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
    bound, verdict = metric.get("bound"), ""
    if bound is not None:
        gap = sign * (mb - ma) / ma if ma else 0.0
        spread = (a3 - a1) / abs(ma) if ma else 0.0
        dominates = all(sign * (y - x) < 0 for x in a for y in b)
        verdict = "WORSE" if gap > bound else "unresolved" if spread > bound and not dominates else "ok"
    return (ma, a1, a3), (mb, b1, b3), sum(1 for x, y in zip(a, b) if sign * (y - x) < 0), verdict

print("workload metric | parent median [q1 q3] | change median [q1 q3] | gap bound verdict | pairs won")
for workload in workloads:
    parent, change = runs(workload, "parent"), runs(workload, "change")
    for metric in metrics:
        compared = compare(metric, parent, change)
        if compared is None:
            continue
        ((ma, a1, a3), (mb, b1, b3), won, verdict), sign = compared, 1 if metric["better"] == "lower" else -1
        gap = sign * (mb - ma) / ma if ma else 0.0
        clear = "clear" if abs(mb - ma) > a3 - a1 else "inside parent iqr"
        bound = metric.get("bound")
        verdict = "" if bound is None else f" {bound} {verdict}"
        name = metric["name"]
        print(f"{workload} {name} | {ma:.6g} [{a1:.6g} {a3:.6g}] | {mb:.6g} [{b1:.6g} {b3:.6g}]"
              f" | {gap:+.4f}{verdict} | {won}/{len(parent)} {clear}")
    failed = lambda rs: str(sum(r["failed"] for r in rs)) + "/" + str(sum(r["attempted"] for r in rs))
    print(f"{workload} failed ops | parent {failed(parent)} | change {failed(change)}")
    row = dict(change=hashes["change"], parent=hashes["parent"], workload=workload,
               pairs=len(parent), seconds=float(seconds), trace=trace == "1", metrics={},
               failed=dict(parent=sum(r["failed"] for r in parent),
                           change=sum(r["failed"] for r in change)))
    for metric in spec["end_to_end"]:
        compared = compare(metric, parent, change)
        if compared is not None:
            (ma, _, _), (mb, _, _), won, verdict = compared
            row["metrics"][metric["name"]] = dict(parent=ma, change=mb, won=won, verdict=verdict)
    trajectory.write(json.dumps(row) + "\n")
print(f"runs and trajectory.jsonl kept in {out}")
'
short_hash() { git -C "$1" rev-parse --short HEAD 2>/dev/null || echo unknown; }
python3 -c "$report" "$spec" "$out" "$trace" "$(short_hash "$parent")" "$(short_hash "$change")" \
    "$seconds" $workloads
