#!/usr/bin/env bash
# Builds uwb-bench from source and runs it with the given arguments.
#
#   bash crates/perfwatch/src/bin/uwb-bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Both binaries are built on every call (a no-op once built), so the
# first call pays the whole build. `--trace 1` runs uwb-bench-traced,
# the count-alloc build; everything else runs the plain build, so
# end-to-end numbers carry no allocation accounting. Build output goes
# to $CARGO_TARGET_DIR, or to target/ beside this script.
set -euo pipefail

here="$(dirname "$0")"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$manifest" --bin uwb-bench
cargo build --release --offline --quiet --manifest-path "$manifest" \
    --features count-alloc --bin uwb-bench-traced

bin=uwb-bench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=uwb-bench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
