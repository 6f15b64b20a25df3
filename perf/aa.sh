#!/usr/bin/env bash
# The benchmark's own acceptance run: build offline, run all four
# workloads twice back to back (A/A) and once with another seed, run the
# four traced runs, and judge the A/A pair with `das_perf compare`.
# Exits non-zero if any run is incorrect or the A/A pair disagrees by more
# than the benchmark's own bounds.
set -euo pipefail
cd "$(dirname "$0")/.."
start=$(date +%s)

cargo build --release --offline --manifest-path perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf/target}/release/das_perf"
out=perf/out
mkdir -p "$out"

"$bin" run --workload all --out "$out/aa.a.json"
"$bin" run --workload all --out "$out/aa.b.json"
"$bin" run --workload all --seed 7 --out "$out/aa.seed7.json"
"$bin" run --workload all --trace 1 --out "$out/aa.trace.json"
"$bin" compare "$out/aa.a.json" "$out/aa.b.json"

echo "aa.sh: total wall time $(( $(date +%s) - start )) s"
