#!/usr/bin/env bash
# Build and run the serving benchmark from the repository root:
#   bash servbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# --trace 0 runs the end-to-end runner, --trace 1 the traced runner.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=serve_e2e
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" != "0" ]; then
        bin=serve_traced
    fi
    prev=$arg
done
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path servbench/Cargo.toml --bin "$bin" >&2
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
