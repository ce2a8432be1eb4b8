#!/usr/bin/env bash
# Aggregates the committed BENCH_*.json at the repo root (the c10k,
# chaos and elastic scale benches) into one readable table: their
# headline numbers and when each file last changed. Read-only —
# regenerating a bench is its binary's job (`cargo run -p bench --bin
# <name>`). Performance numbers are not here: see BENCHMARK.json and
# crates/benchmark/run.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
    echo "no BENCH_*.json files at the repo root" >&2
    exit 1
fi

python3 - "${files[@]}" <<'EOF'
import json, subprocess, sys

def changed(path):
    try:
        out = subprocess.run(
            ["git", "log", "-1", "--format=%cs", "--", path],
            capture_output=True, text=True, check=True).stdout.strip()
        return out or "uncommitted"
    except Exception:
        return "?"

def fmt(v, nd=2):
    return f"{v:,.{nd}f}" if isinstance(v, float) else f"{v:,}"

def headline(name, d):
    """One line of the numbers a reviewer checks first, per bench."""
    try:
        if name == "BENCH_c10k.json":
            return [
                f"{r['transport']} @ {fmt(r['conns'])}: {fmt(r['held'])} held, "
                f"{fmt(r['rss_per_conn_bytes'], 0)} B/conn, ping p99 {fmt(r['ping_p99_us'], 1)} us"
                for r in d.get("scenarios", [])
            ] or None
        if name == "BENCH_chaos.json":
            return [
                f"eval return: {fmt(d['fault_free']['eval_return'])} fault-free, "
                f"{fmt(d['chaos']['eval_return'])} under chaos "
                f"(retention {fmt(d['chaos']['retention'])}), "
                f"{fmt(d['faults']['injected_events'])} faults injected",
            ]
        if name == "BENCH_elastic.json":
            r = d["run"]
            p = d["phases"]
            wide = next(k for k in p if k.startswith("wide_"))
            return [
                f"elastic 2->6->3: {fmt(p['plateau_2w_updates_per_s'])} -> "
                f"{fmt(p[wide])} updates/s after scale-up, "
                f"{fmt(r['evictions'])} eviction(s), epoch {fmt(r['cluster_epoch'])}",
                f"zero-loss: {fmt(r['samples_inserted'])} inserted >= "
                f"{fmt(r['samples_reported'])} reported over {len(d['throughput_trace'])} "
                f"trace points",
            ]
    except (KeyError, TypeError, ZeroDivisionError) as e:
        return [f"(unrecognized layout: {e})"]
    return None

for path in sys.argv[1:]:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            print(f"{path}: INVALID JSON ({e})")
            continue
    print(f"{path}  (last committed {changed(path)})")
    for line in headline(path, data) or ["(no headline extractor; see file)"]:
        print(f"  {line}")
    print()
EOF
