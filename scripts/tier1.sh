#!/usr/bin/env bash
# Tier-1 gate: release build, the workspace test suite, the tensor
# kernels' tests again in the release profile, the serving and
# multi-process examples, the three scale-bench smokes (chaos, elastic,
# c10k), an A/A smoke of scripts/ab.sh, rustdoc and clippy over all
# targets (deny warnings), rustfmt. Prints the elapsed seconds of every
# step and of the whole gate. Performance is not
# measured here: the one ruler is crates/benchmark/run.sh (BENCHMARK.json).
#
# With registry access the standard invocations work directly. In the
# offline container the third-party crates cannot be resolved, so the
# std-only stand-ins under offline-stubs/ are injected via the
# [patch.crates-io] config file (see offline-stubs/README.md). The serde
# stubs implement real JSON round-trips, so the full test suite must
# pass in both modes.
set -euo pipefail
cd "$(dirname "$0")/.."

CONFIG=()
OFFLINE=()
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "tier1: registry unavailable — building against offline-stubs/" >&2
    CONFIG=(--config offline-stubs/patch.toml)
    OFFLINE=(--offline)
fi

# step <name> <command...>: runs the command, then prints what it took.
step() {
    local name=$1 t0=$SECONDS
    shift
    "$@"
    echo "tier1: ${name}: $((SECONDS - t0)) s"
}

step build cargo "${CONFIG[@]}" build --release "${OFFLINE[@]}"
# The suite includes the socket tests (transport_interop, mux_loopback,
# net_runtime, elastic_cluster): a wedged one must fail the gate, not
# hang it. ~4 min warm on the one-core box; the ceiling is generous.
step test timeout 1800 cargo "${CONFIG[@]}" test -q "${OFFLINE[@]}" --workspace --no-fail-fast
# The kernels' bitwise oracles again, on the code the benchmark runs: the
# optimiser vectorises and reorders what the dev profile above does not.
step kernel_oracles cargo "${CONFIG[@]}" test -q --release "${OFFLINE[@]}" -p rlgraph-tensor

# Exercise the serving path end to end (batched act + hot weight swap).
step serve_smoke cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" --example serve_smoke

# Fault tolerance: chaos engine smoke (tiny fault plan, asserts the
# same-seed determinism contract, writes nothing).
step chaos_bench cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin chaos_bench -- --smoke

# Network transport: multi-process Ape-X over loopback TCP — the example
# launches 2 real worker processes under the compressed profile (LZ
# frames, quantized and delta encodings). A socket run that wedges must
# fail the gate fast, so it runs under a hard timeout.
step net_apex timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" --example net_apex

# Elastic cluster: membership + scripted scale-up/down + chaos SIGKILL
# over real worker processes; asserts eviction by missed-beat timeout
# and zero lost transitions (writes nothing in smoke mode).
step elastic_bench timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin elastic_bench -- --smoke

# Reactor: c10k bench smoke (<=256 connections) — re-execs a server
# child per stack under rlimits, verifies the reactor holds the whole
# herd and matches blocking latency. Hard timeout: a wedged event loop
# must fail the gate, not hang it.
step c10k_bench timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin c10k_bench -- --smoke

# The A/B script every perf change is measured with, as an A/A of this
# checkout against itself (a list of two workloads, one pair, 1 s windows):
# it has to exit 0 and report all six end-to-end metrics for each.
# Measures nothing.
ab_smoke() {
    local out
    out=$(scripts/ab.sh . . serve_inproc,worker_collect 1 --seconds 1)
    [ "$(grep -cE '^(serve_inproc|worker_collect): 1 alternating pair' <<<"$out")" -eq 2 ]
    [ "$(grep -cE '^(setup_s|ops_per_s|env_frames_per_s|latency_p50_us|latency_p95_us|peak_rss_mb) ' <<<"$out")" -eq 12 ]
}
step ab_smoke ab_smoke

# The redesigned public API must stay documented: fail on rustdoc warnings.
step doc env RUSTDOCFLAGS="-D warnings" cargo "${CONFIG[@]}" doc --no-deps "${OFFLINE[@]}" --workspace

# clippy is an external subcommand: the --config override must come after
# it. --all-targets lints the tests, examples and bench binaries too.
step clippy cargo clippy "${CONFIG[@]}" --workspace --all-targets "${OFFLINE[@]}" -- -D warnings
step fmt cargo fmt --check
echo "tier1: all checks passed in ${SECONDS} s"
