#!/usr/bin/env bash
# Build the `cape` CLI and the benchmark in release mode, then run the
# benchmark with the given arguments, e.g.
#
#   bash e2e-bench/run.sh --workload explain-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output and per-run scratch go
# under $CARGO_TARGET_DIR (default: .bench_build in the current directory).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p cape-cli --bin cape >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/cape-e2e-bench" --cape "$target/release/cape" --workdir "$target/e2e-runs" "$@"
