#!/usr/bin/env bash
# Same-host before/after pairs of one benchmark workload.
#
#   tools/pairs.sh <base-rev> <workload> [--seed N] [--pairs K]
#
# Exports <base-rev> and HEAD with `git archive` under $TMPDIR/pairs/<sha>
# (never inside benchmark/), builds each export's unedited benchmark/ into
# its own target directory there, then runs K pairs (default 10) of
#
#   catalyzer-benchmark --workload <workload> --seed N --seconds S --trace 0
#
# (N defaults to 11, S is BENCHMARK.json's `run_seconds`), alternating which
# side runs first. Each run's last stdout line is its result. For every
# end-to-end metric BENCHMARK.json names, the script prints each side's
# median and interquartile range, how many pairs HEAD won, the ratio of the
# medians (HEAD / base), and a noise verdict: "within spread" when
# |ratio - 1| is below the larger of the two sides' IQR / median, "moved"
# otherwise. It refuses a verdict, and exits 1, when the two sides of any
# pair disagree on `correct` or `failed`.
#
# Needs git, cargo and python3. Not a gate: tools/check.sh does not run it.
# An export and its build are kept for the next call on the same commit;
# `rm -rf "$TMPDIR/pairs"` reclaims the space.
set -euo pipefail

usage() {
  echo "usage: tools/pairs.sh <base-rev> <workload> [--seed N] [--pairs K]" >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
base_rev="$1"
workload="$2"
shift 2
seed=11
pairs=10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) [[ $# -ge 2 ]] || usage; seed="$2"; shift 2 ;;
    --pairs) [[ $# -ge 2 ]] || usage; pairs="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[[ "$seed" =~ ^[0-9]+$ && "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

repo="$(cd "$(dirname "$0")/.." && pwd)"
base_sha="$(git -C "$repo" rev-parse --verify "${base_rev}^{commit}")"
head_sha="$(git -C "$repo" rev-parse --verify "HEAD^{commit}")"
exports="${TMPDIR:-/tmp}/pairs"
runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

declare -A dir
for side in base head; do
  sha="${side}_sha"
  dir[$side]="$exports/${!sha}"
  if [[ ! -d "${dir[$side]}/src" ]]; then
    mkdir -p "${dir[$side]}/src.partial"
    git -C "$repo" archive "${!sha}" | tar -x -C "${dir[$side]}/src.partial"
    mv "${dir[$side]}/src.partial" "${dir[$side]}/src"
  fi
  echo "==> building $side (${!sha:0:9})" >&2
  cargo build --release --offline --quiet \
    --manifest-path "${dir[$side]}/src/benchmark/Cargo.toml" \
    --target-dir "${dir[$side]}/target" >&2
done

seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "${dir[head]}/src/BENCHMARK.json")"

run() {
  local side="$1" pair="$2" line
  line="$("${dir[$side]}/target/release/catalyzer-benchmark" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)" || true
  printf '%s\t%s\t%s\n' "$side" "$pair" "$line" >> "$runs"
}

for ((pair = 1; pair <= pairs; pair++)); do
  if ((pair % 2)); then order=(base head); else order=(head base); fi
  for side in "${order[@]}"; do
    run "$side" "$pair"
  done
  echo "    pair $pair/$pairs done (${order[0]} first)" >&2
done

python3 - "$runs" "${dir[head]}/src/BENCHMARK.json" \
  "$base_rev" "$workload" "$seed" <<'PY'
import json
import sys

runs_path, spec_path, base_rev, workload, seed = sys.argv[1:]
metrics = json.load(open(spec_path))["end_to_end"]
runs = {}
for row in open(runs_path):
    side, pair, line = row.rstrip("\n").split("\t", 2)
    try:
        runs.setdefault(int(pair), {})[side] = json.loads(line)
    except json.JSONDecodeError:
        print(f"no verdict: pair {pair}'s {side} run printed no result line")
        sys.exit(1)


def quantile(values, q):
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


print(f"{workload}, seed {seed}, {len(runs)} pairs: base {base_rev} vs HEAD")
print(f"{'metric':<14} {'base median':>14} {'base IQR':>12} "
      f"{'HEAD median':>14} {'HEAD IQR':>12} {'HEAD wins':>10} {'ratio':>8} "
      f"{'verdict':>14}")
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    base = [runs[p]["base"]["metrics"][name]["value"] for p in sorted(runs)]
    head = [runs[p]["head"]["metrics"][name]["value"] for p in sorted(runs)]
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    b_med, h_med = quantile(base, 0.5), quantile(head, 0.5)
    b_iqr = quantile(base, 0.75) - quantile(base, 0.25)
    h_iqr = quantile(head, 0.75) - quantile(head, 0.25)
    ratio = h_med / b_med if b_med else float("nan")
    spread = max(b_iqr / b_med if b_med else float("inf"),
                 h_iqr / h_med if h_med else float("inf"))
    verdict = "within spread" if abs(ratio - 1) < spread else "moved"
    print(f"{name:<14} {b_med:>14.3f} {b_iqr:>12.3f} {h_med:>14.3f} "
          f"{h_iqr:>12.3f} {wins:>7}/{len(runs):<2} {ratio:>8.3f} "
          f"{verdict:>14}")

disagree = [
    (p, key, r["base"][key], r["head"][key])
    for p, r in sorted(runs.items())
    for key in ("correct", "failed")
    if r["base"][key] != r["head"][key]
]
for pair, key, b, h in disagree:
    print(f"pair {pair}: `{key}` differs: base {b}, HEAD {h}")
if disagree:
    print("no verdict: the two sides do not compute the same thing")
    sys.exit(1)
sides = [(r["base"]["correct"], r["base"]["failed"]) for r in runs.values()]
print(f"both sides agree on correct/failed in every pair: {sorted(set(sides))}")
PY
