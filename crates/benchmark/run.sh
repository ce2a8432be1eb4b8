#!/usr/bin/env bash
# Builds the benchmark binary (release, into the workspace target
# directory or $CARGO_TARGET_DIR) and runs it with the given arguments.
#
#   crates/benchmark/run.sh                      every workload, both passes, summary
#   crates/benchmark/run.sh --calibrate          the end-to-end pass twice, gaps vs bounds
#   crates/benchmark/run.sh --workload serve_tcp --seed 3 --seconds 12 --trace 0
#
# The build never touches the network, so an up-to-date binary costs
# milliseconds per invocation (probing the registry like
# scripts/tier1.sh does takes ten seconds to time out in the offline
# container): first the real third-party crates from the local cargo
# cache, and where they are not cached the std-only stand-ins under
# offline-stubs/.
set -euo pipefail
cd "$(dirname "$0")/../.."

# build output goes to stderr and stays out of the result stream
build() { cargo "$@" build --release --offline -p benchmark --quiet >&2; }
build 2>/dev/null || build --config offline-stubs/patch.toml

# not exec: rusage of waited-for children (cargo, above) survives exec and
# would be counted into the benchmark's peak RSS
"${CARGO_TARGET_DIR:-target}/release/benchmark" "$@"
