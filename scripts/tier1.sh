#!/usr/bin/env bash
# Tier-1 gate: release build, test suite, serving smoke test, clippy
# (deny warnings), rustfmt.
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

cargo "${CONFIG[@]}" build --release "${OFFLINE[@]}"
# The suite includes the socket tests (transport_interop, mux_loopback,
# net_runtime, elastic_cluster): a wedged one must fail the gate, not
# hang it. ~4 min warm on the one-core box; the ceiling is generous.
timeout 1800 cargo "${CONFIG[@]}" test -q "${OFFLINE[@]}" --workspace --no-fail-fast

# Exercise the serving path end to end (batched act + hot weight swap).
cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" --example serve_smoke

# Kernel engine: a does-it-run bench smoke (tiny shapes, writes nothing).
cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin kernel_bench -- --smoke

# Fault tolerance: chaos engine smoke (tiny fault plan, asserts the
# same-seed determinism contract, writes nothing).
cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin chaos_bench -- --smoke

# Network transport: multi-process Ape-X over loopback TCP (the example
# launches 2 real worker processes), then the net bench smoke: process
# launch + RPC under the compressed profile (LZ frames, quantized and
# delta encodings) + TCP serving. Socket runs that wedge must fail the
# gate fast, so both run under a hard timeout.
timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" --example net_apex
timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin net_bench -- --smoke

# Wire compression: codec bench smoke runs the full quantize / delta /
# LZ encode-decode matrix with its error-bound asserts (writes nothing).
timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin codec_bench -- --smoke

# Telemetry plane: obs bench smoke — runs the Ape-X TCP runtime with the
# recorder off and on, asserts the cluster report and merged trace are
# produced (the <5% overhead threshold is full-mode only).
timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin obs_bench -- --smoke

# Elastic cluster: membership + scripted scale-up/down + chaos SIGKILL
# over real worker processes; asserts eviction by missed-beat timeout
# and zero lost transitions (writes nothing in smoke mode).
timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin elastic_bench -- --smoke

# Reactor: c10k bench smoke (<=256 connections) — re-execs a server
# child per stack under rlimits, verifies the reactor holds the whole
# herd and matches blocking latency. Hard timeout: a wedged event loop
# must fail the gate, not hang it.
timeout 300 cargo "${CONFIG[@]}" run --release "${OFFLINE[@]}" -p bench --bin c10k_bench -- --smoke

# The redesigned public API must stay documented: fail on rustdoc warnings.
RUSTDOCFLAGS="-D warnings" cargo "${CONFIG[@]}" doc --no-deps "${OFFLINE[@]}" --workspace

# clippy is an external subcommand: the --config override must come after it
cargo clippy "${CONFIG[@]}" --workspace "${OFFLINE[@]}" -- -D warnings
cargo fmt --check
echo "tier1: all checks passed"
