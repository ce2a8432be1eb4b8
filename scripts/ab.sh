#!/usr/bin/env bash
# A/B of benchmark workloads between two checkouts, the way the benchmark
# check reads a perf claim (choosing-metrics §8, ROADMAP 1(g)).
#
#   scripts/ab.sh <parent-checkout> <change-checkout> <workload[,workload...]> [pairs=10] [--seconds S]
#
# Each side is built by its own crates/benchmark/run.sh into its own
# target/, before any run. Pair i runs every listed workload in turn, both
# sides with --seed i --trace 0, the parent first on odd pairs and the
# change first on even ones; --seconds defaults to BENCHMARK.json's
# run_seconds. A list (the claimed workload and the ones that should not
# move) is one command and one table per workload. Nothing else may run on
# the box meanwhile (a concurrent cargo build costs impala_inproc a quarter
# of its rate).
#
# Per end-to-end metric it prints both medians, each side's spread
# ((Q3 - Q1) / median), the pairs the change won (ties count for neither),
# change / parent (base: the parent's median), and what the driver's check
# resolves: the change's IQR over the *parent's* median, which has to stay
# under the metric's bound. A k-fold gain on a rate passes only while
# k x spread < bound, so the last column is bound / the change's spread:
# the largest step on that cell the check would still resolve at the spread
# just measured ("-" where lower is better, which a gain only makes easier,
# and where one pair gives no spread); then every run's value. Exits 1 if
# the change's share of failed operations is higher on any workload.
#
# It reads the result line run.sh ends with and changes nothing under
# crates/benchmark/. ROADMAP item 4(iii)'s `--check` mode replaces it.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-checkout> <change-checkout> <workload[,workload...]> [pairs=10] [--seconds S]" >&2
    exit 2
}
[ $# -ge 3 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
IFS=, read -ra workloads <<<"$3"
[ ${#workloads[@]} -ge 1 ] || usage
shift 3
pairs=10
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$change/BENCHMARK.json")
while [ $# -gt 0 ]; do
    case $1 in
        --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
        *) pairs=$1; shift ;;
    esac
done
[ "$pairs" -ge 1 ] 2>/dev/null || usage

# each checkout builds into its own target/
unset CARGO_TARGET_DIR
for dir in "$parent" "$change"; do
    bash "$dir/crates/benchmark/run.sh" --catalogue >/dev/null
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# run <side> <checkout> <workload> <seed>: appends "<workload> <side>
# <result line>" to $runs. run.sh exits 1 when operations failed; the
# result line still counts.
run() {
    local line
    line=$(bash "$2/crates/benchmark/run.sh" --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
    case $line in
        '{'*) echo "$3 $1 $line" >>"$runs" ;;
        *) echo "ab: $1 run of $3 (seed $4) ended without a result line" >&2; exit 1 ;;
    esac
}

for ((i = 1; i <= pairs; i++)); do
    for workload in "${workloads[@]}"; do
        if ((i % 2)); then
            run parent "$parent" "$workload" "$i"
            run change "$change" "$workload" "$i"
        else
            run change "$change" "$workload" "$i"
            run parent "$parent" "$workload" "$i"
        fi
    done
    echo "ab: pair $i of $pairs done" >&2
done

python3 - "$change/BENCHMARK.json" "$runs" "$seconds" <<'EOF'
import json, statistics, sys

bench, runs, seconds = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
# workload -> side -> results, workloads in the order given
by_workload = {}
for line in open(runs):
    workload, side, result = line.split(" ", 2)
    by_workload.setdefault(workload, {"parent": [], "change": []})[side].append(json.loads(result))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def spread(lo, mid, hi):
    return (hi - lo) / mid if mid else 0.0

def failed_share(results):
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))

def report(workload, parent, change):
    """Prints one workload's table; True if the change failed a larger share."""
    n = len(parent)
    print(f"{workload}: {n} alternating pair(s), {seconds} s windows, seeds 1..{n}, --trace 0")
    print(f"{'metric':<18}{'parent':>12}{'spread':>8}{'change':>12}{'spread':>8}"
          f"{'won':>7}{'change/parent':>15}{'IQR/parent':>12}{'bound':>7}{'max step':>10}")
    per_run = []
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        p, c = ([r["metrics"][name]["value"] for r in side] for side in (parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        won = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
        ties = sum(x == y for x, y in zip(p, c))
        # the base of the ratio and of the resolvability figure is the parent's median
        ratio = cm / pm if pm else float("nan")
        resolv = (c3 - c1) / pm if pm else 0.0
        c_spread = spread(c1, cm, c3)
        max_step = f"{bound / c_spread:.2f}x" if higher and c_spread else "-"
        verdict = "" if resolv < bound else "  unresolvable"
        print(f"{name:<18}{pm:>12.5g}{spread(p1, pm, p3):>8.3f}{cm:>12.5g}{c_spread:>8.3f}"
              f"{f'{won}/{n - ties}':>7}{ratio:>15.3f}{resolv:>12.3f}{bound:>7.2f}{max_step:>10}{verdict}")
        for side, xs in (("parent", p), ("change", c)):
            per_run.append(f"  {name} {side}: " + " ".join(f"{x:.5g}" for x in xs))
    print("per run, in seed order:")
    print("\n".join(per_run))
    pf, cf = failed_share(parent), failed_share(change)
    print(f"failed operations: parent {pf:.6f}, change {cf:.6f} of attempted")
    return cf > pf

# every table is printed before the verdict, so no `any` over a generator
worse = [report(w, s["parent"], s["change"]) for w, s in by_workload.items()]
sys.exit(1 if any(worse) else 0)
EOF
