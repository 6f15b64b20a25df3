#!/usr/bin/env bash
# Regenerates every quick-mode output that has a committed golden under
# results/ci/ (one `das_bench all` call for every figure and table in the
# registry, then the das_experiment CLI paths) and byte-diffs it, exiting
# non-zero on the first difference.
# CI runs exactly this script; run it locally the same way:
#
#     cargo build --release --offline --workspace
#     ci/goldens.sh [results-dir]          # default: a fresh temp dir
#
# Every simulation here is a pure function of its seed, so the outputs
# must reproduce the goldens byte-for-byte. After a *deliberate*
# simulation, attribution or search change, copy the fresh files from
# [results-dir] over results/ci/ (names below); after a scenario change
# first regenerate the corpora (`cargo test --release --test
# scenario_corpus -- --ignored`, `cargo test --release --test
# chaos_corpus -- --ignored regenerate`).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-$(mktemp -d)}"
mkdir -p "$out"
bin=./target/release
golden=results/ci
export DAS_QUICK=1 DAS_RESULTS_DIR="$out"

# Every quick-mode figure and table the registry lists, each pinned by
# results/ci/<id>.quick.{json,md}: the clean path across every sweep,
# crash + retry (fig22), hedging (fig23), overload control (fig24), the
# trace pipeline (table7-9), the scenario corpus (table10, whose traces
# are committed and byte-pinned) and the chaos search (table11).
figures=$($bin/das_bench list | awk '{print $1}')
test -n "$figures"
$bin/das_bench all > /dev/null
for f in table7_das.chrome.json table10_flash_crowd_fcfs.jsonl table10_flash_crowd_das.jsonl; do
  test -s "$out/$f"
done

# Blame-diff CLI: table8 persists the two event logs it diffed; the CLI
# must reproduce the same attribution from the files alone.
$bin/das_experiment blame-diff "$out/table8_fcfs.jsonl" "$out/table8_das.jsonl" \
  --out "$out/blame_diff_summary.json" > /dev/null

# N-way ladder from table9's four rung logs, and the telemetry fold
# rendering a per-server report from one of them.
$bin/das_experiment blame-diff --ladder FCFS,Rein-SBF,DAS,DAS-tuned \
  "$out/table9_fcfs.jsonl" "$out/table9_rein_sbf.jsonl" \
  "$out/table9_das.jsonl" "$out/table9_das_tuned.jsonl" \
  --out "$out/ladder_summary.json" > /dev/null
$bin/das_experiment top "$out/table9_das.jsonl" > "$out/top.txt"
grep -q "per-server telemetry" "$out/top.txt"

# Record/replay: `run --record-workload` writes the RequestSpec stream
# alongside the event logs; `replay` injects it against the same config
# and must reproduce the original event logs byte-for-byte; the replayed
# logs feed blame-diff directly.
$bin/das_experiment run $golden/replay_smoke.config.json \
  --trace "$out/rr-orig" --record-workload "$out/rr-workload.jsonl" > /dev/null
$bin/das_experiment replay $golden/replay_smoke.config.json "$out/rr-workload.jsonl" \
  --trace "$out/rr-replay" > /dev/null
cmp "$out/rr-orig-FCFS.jsonl" "$out/rr-replay-FCFS.jsonl"
cmp "$out/rr-orig-DAS.jsonl" "$out/rr-replay-DAS.jsonl"
$bin/das_experiment blame-diff "$out/rr-replay-FCFS.jsonl" "$out/rr-replay-DAS.jsonl" \
  --out "$out/rr-blame.json" > /dev/null
test -s "$out/rr-blame.json"

# Chaos search is a pure function of (seed, budget); every committed
# minimized reproducer must replay to its recorded oracle verdict.
$bin/das_experiment chaos --seed 3 --budget 2 --shrink-budget 10 \
  --out "$out/chaos" > /dev/null
$bin/das_experiment chaos-verify crates/chaos/corpus > /dev/null

for id in $figures; do
  diff "$golden/$id.quick.json" "$out/$id.json"
  diff "$golden/$id.quick.md" "$out/$id.md"
done
diff $golden/blame_diff_summary.quick.json "$out/blame_diff_summary.json"
diff $golden/ladder_summary.quick.json "$out/ladder_summary.json"
diff $golden/chaos.quick.report.json "$out/chaos/chaos_report.json"
diff $golden/chaos.quick.report.md "$out/chaos/chaos_report.md"
echo "goldens: every results/ci golden reproduced byte-for-byte ($out)"
