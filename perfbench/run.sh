#!/usr/bin/env bash
# Builds the shipped obf_server binary and the benchmark from source,
# then runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --summary
#
# Build output goes to $CARGO_TARGET_DIR (default: the repository's
# target/); run state (history, spans, scratch files) to .perfbench/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p obf_server --bin obf_server >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" --server-bin "$target/release/obf_server" "$@"
