#!/usr/bin/env bash
# Builds the benchmark package from source and runs one workload:
#
#   bash perfbench/run.sh --workload <sim_paper|sim_chaos|native_bio> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 runs the end-to-end binary; --trace 1 runs the traced binary,
# which installs the counting allocator and reports per-layer metrics.
# Build output goes to $CARGO_TARGET_DIR when set, else perfbench/target.
# The last line of standard output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

trace=0
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" ]]; then
        trace="${args[i + 1]}"
    fi
done
bin=perfbench
if [[ "$trace" == "1" ]]; then
    bin=perfbench-traced
fi

cargo build --release --offline --quiet --manifest-path "$manifest" --bins
exec cargo run --release --offline --quiet --manifest-path "$manifest" --bin "$bin" -- "$@"
