#!/usr/bin/env bash
# Tier-1 gate: release build, the workspace test suite, the tensor
# kernels' tests and the same-seed fixtures again in the release profile,
# the serving and multi-process examples, the two scale-bench smokes
# (chaos, elastic), an A/A smoke of scripts/ab.sh, rustdoc and clippy over
# all targets (deny warnings), rustfmt. Prints the elapsed seconds of
# every step and of the whole gate. Performance is not
# measured here: the one ruler is crates/benchmark/run.sh (BENCHMARK.json).
#
# The workspace depends on nothing outside the repository, so every step
# is the plain cargo invocation and needs no registry.
set -euo pipefail
cd "$(dirname "$0")/.."

# step <name> <command...>: runs the command, then prints what it took.
step() {
    local name=$1 t0=$SECONDS
    shift
    "$@"
    echo "tier1: ${name}: $((SECONDS - t0)) s"
}

step build cargo build --release
# The suite includes the socket tests (rpc_loopback, server_idle,
# net_runtime, elastic_cluster): a wedged one must fail the gate, not
# hang it. ~2.5 min warm on a 2-vCPU host; the ceiling is generous.
step test timeout 1800 cargo test -q --workspace --no-fail-fast
# The kernels' bitwise oracles again, on the code the benchmark runs: the
# optimiser vectorises and reorders what the dev profile above does not.
step kernel_oracles cargo test -q --release -p rlgraph-tensor
# The same-seed fixtures over those kernels, in release for the same
# reason: a kernel that vectorises differently changes the bits they pin;
# traced-vs-contracted equality and the session's steady-state allocation
# counts, and the wire crate (the frame CRC's oracles, the golden frames),
# in the profile the benchmark runs. The learning fixtures (apex_learns,
# impala_learns: each seed against a frozen control) run only here; the
# debug workspace step skips them. The TCP runtime's tests run here too:
# its learner loop is the one `apex_tcp` times, so it has to hold in the
# release profile as well.
release_fixtures() {
    cargo test -q --release -p rlgraph-dist \
        --test fragment_parity --test chaos_fixture --test apex_learns --test impala_learns
    cargo test -q --release -p rlgraph --test backend_parity \
        --test fast_path_contraction
    cargo test -q --release -p rlgraph-core \
        --test contraction_update
    cargo test -q --release -p rlgraph-agents \
        --test steady_state_allocs
    cargo test -q --release -p rlgraph-reactor
    cargo test -q --release -p rlgraph-net --test net_runtime --test elastic_cluster
}
step release_fixtures release_fixtures

# Exercise the serving path end to end (batched act + hot weight swap).
step serve_smoke cargo run --release --example serve_smoke

# Fault tolerance: chaos engine smoke (tiny fault plan, asserts the
# same-seed determinism contract, writes nothing).
step chaos_bench cargo run --release -p bench --bin chaos_bench -- --smoke

# Network transport: multi-process Ape-X over loopback TCP — the example
# launches 2 real worker processes under the compressed profile (LZ
# frames, quantized and delta encodings). A socket run that wedges must
# fail the gate fast, so it runs under a hard timeout.
step net_apex timeout 300 cargo run --release --example net_apex

# Elastic cluster: membership + scripted scale-up/down + chaos SIGKILL
# over real worker processes; asserts eviction by missed-beat timeout
# and zero lost transitions (writes nothing in smoke mode).
step elastic_bench timeout 300 cargo run --release -p bench --bin elastic_bench -- --smoke

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
step doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# --all-targets lints the tests, examples and bench binaries too.
step clippy cargo clippy --workspace --all-targets -- -D warnings
step fmt cargo fmt --check
echo "tier1: all checks passed in ${SECONDS} s"
