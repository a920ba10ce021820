#!/usr/bin/env bash
# Build the programs under test (`matrix`, `tp-serve`) and the benchmark,
# then run one workload:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; stdout carries the summary lines and, last,
# the JSON result. CARGO_TARGET_DIR is honoured (default: <repo>/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
cargo build --release -q --manifest-path "$root/Cargo.toml" --target-dir "$target" \
    -p tp-bench --bin matrix -p tp-serve --bin tp-serve >&2
cargo build --release -q --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
# Not `exec`: the benchmark reads its children's peak RSS from
# getrusage(RUSAGE_CHILDREN), which would otherwise include cargo's.
"$target/release/perfbench" --root "$root" --bin-dir "$target/release" "$@"
