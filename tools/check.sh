#!/usr/bin/env bash
# The gate, local and CI alike: .github/workflows/ci.yml runs this script as
# its one gating step, so every step, its order and the vendored-crate
# exclude list are written here only.
# Fails fast; run from anywhere inside the repo. Each step is timed and a
# wall-clock summary table prints at the end — when the gate feels slow,
# the table says which step to blame.
#
#   tools/check.sh [--record]
#
# The summary also prints the tree's non-test line count (tools/loc.sh).
# With --record, a passing run also appends one JSON line to
# docs/ledger.jsonl: "kind": "check", the host as tools/pairs.sh writes it
# (`uname -m`, CPU model, vCPUs), the commit (and whether the tree had
# uncommitted changes), each step's seconds and the line count as "loc".
# Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."

record=""
case "${1-}" in
  "") ;;
  --record) record=1 ;;
  *) echo "usage: tools/check.sh [--record]" >&2; exit 2 ;;
esac

STEP_NAMES=()
STEP_SECS=()

step() {
  local name="$1"
  shift
  echo "==> ${name}"
  local t0 t1
  t0=$(date +%s.%N)
  "$@"
  t1=$(date +%s.%N)
  STEP_NAMES+=("${name}")
  STEP_SECS+=("$(awk -v a="${t0}" -v b="${t1}" 'BEGIN { printf "%6.1f", b - a }')")
}

# --all-targets lints tests, benches, and examples too — the parse
# crates re-allow unwrap/expect (and narrowing casts) in test code, so
# the deny lints stay aimed at library code handling untrusted images.
# third_party/* members are vendored verbatim and excluded: their test
# targets are not held to this workspace's lint bar and must never be
# edited to satisfy it.
# Five invariants are enforced here and nowhere else. The ban on wall
# clocks, env reads, host threads and child processes is the
# `disallowed-methods` list in crates/clippy.toml; its `disallowed-types`
# list bans `RefCell` (three sites `#[expect]` it), `std::error::Error`
# (three `fn source` overrides `#[expect]` it), `HashMap`/`HashSet`, and
# every lock — `std::sync::{Mutex, RwLock}` and `parking_lot::{Mutex,
# RwLock}` — since shared state is built once or an atomic record (found
# from each crates/* manifest dir; third_party/, the root package and
# benchmark/ do not see it). Every panic source is denied crate-wide
# in imagefmt, memsim, guest-kernel and simtime (their Cargo.toml), and
# `as` casts and indexing in each module that parses untrusted bytes (an
# inner attribute at its top). And the two open-loop event loops deny
# `clippy::wildcard_enum_match_arm`, so each names every DES event
# variant: `run_fleet`, and `drive`, whose one match calls one method of
# the cluster kernel's state per event class (crates/platform/src/
# simulate/fleet.rs, cluster/fleet.rs).
FIRST_PARTY=(--workspace
  --exclude bytes --exclude crossbeam
  --exclude parking_lot --exclude proptest --exclude rand
  --exclude serde --exclude serde_derive --exclude serde_json)

# A ban-list path that does not resolve (a typo, a renamed item), in
# either list, is only a plain warning from clippy's config loader, which
# -D warnings does not promote (measured, clippy 0.1.95): fail on it here,
# or the entry would silently ban nothing. Entries for crates that not
# every member depends on carry `allow-invalid` and print no such warning.
clippy_workspace() {
  local log
  log="$(mktemp)"
  cargo clippy "${FIRST_PARTY[@]}" --all-targets -- -D warnings 2>&1 | tee "${log}"
  if grep -q 'does not refer to' "${log}"; then
    echo "crates/clippy.toml: a disallowed-methods or disallowed-types path does not resolve (warning above)" >&2
    return 1
  fi
  rm -f "${log}"
}

# Every first-party crate's unit, integration and doc tests — not just the
# root package's (a bare `cargo test` in a workspace with a root package
# tests only that package). This is where the pinned event-engine
# fixtures, the imagefmt corruption proptests, the faultsim suite, the
# DES twin test, and the `compile_fail` doctests on `SimNanos`,
# `InstanceId` and `BootCtx` run. It runs in debug, so every metric and
# span name an exercised path emits is checked against `simtime::names`.
test_workspace() {
  cargo test -q "${FIRST_PARTY[@]}"
}

# The wall-clock harness prints its table on stderr and the results JSON
# on stdout; the gate only needs the table and the exit code.
benchmark_smoke() {
  bash benchmark/run.sh --smoke >/dev/null
}

step "cargo fmt --check" cargo fmt --all --check
step "cargo clippy (workspace, --all-targets, -D warnings)" clippy_workspace
step "cargo build --release" cargo build --release
step "cargo test (every first-party crate)" test_workspace

# Rustdoc over every first-party crate, warnings denied: an intra-doc link
# to an item that was renamed or deleted, a private item linked from public
# docs, or a redundant explicit link target fails here instead of rotting
# silently in the rendered docs (rustdoc only warns, and nothing else runs
# it).
docs_workspace() {
  RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps "${FIRST_PARTY[@]}"
}
step "cargo doc (every first-party crate, -D warnings)" docs_workspace

# Regenerates every deterministic export in-memory and verifies each
# checked-in BENCH file is valid and byte-identical — i.e. the layer it
# covers is still deterministic and still meets its claims:
#   pr2 observability export (every Fig. 11 engine, monotone span nesting,
#       phase attribution summing to the boot total);
#   pr3 fault sweep (zero-rate and full-ladder rows at availability 1.0,
#       the no-recovery baseline losing requests);
#   pr4 overload sweep (admission invisible at zero load, typed sheds past
#       saturation, the full policy bounding p99 under the storm);
#   pr7 fleet density grid (10^3 → 10^6 instances, every rung reaching its
#       burst density: event queue, arenas, calibration);
#   pr8 cluster sweep (single-node cluster ≡ plain gateway, remote fork at
#       availability 1.0 with zero cold boots, poisoned transfers degrading
#       to cold instead of shedding);
#   pr9 chaos grid (full failover holding availability ≥ (N−1)/N at sub-ms
#       startup p99 under crash/gray/partition; the baseline hanging
#       waiters).
# A release build, one step after `cargo build --release` compiled its
# dependencies: the six checks take about a minute this way and about
# fifteen as a debug build. Debug assertions and overflow checks stay
# covered by the `cargo test` step above, which runs every first-party
# test in debug.
step "BENCH exports (pr2/3/4/7/8/9 valid + byte-identical)" \
  cargo run -q --release -p bench --bin repro -- all --check

# The stage probe (examples/restore_stages.rs), one round: each of the ten
# profiles' func-images written and restored stage by stage, printing host
# wall time per stage. Its numbers are not gated; it fails on any error, so
# the probe a perf PR is judged by still runs (~2 s).
step "stage probe (write + restore + fork, one round)" \
  cargo run -q --release --example restore_stages 1

# The calibration probe (examples/calibration_stages.rs), one round: the
# fleet kernel's and the cluster kernel's Catalyzer calls made shape by
# shape in catalogue order (the fleet one fork boot and its handler run,
# the cluster a fork, its handler run and a cold boot), printing host
# seconds per stage (prepare with its heap fill split out, boots, exec,
# drops) beside a one-request run_fleet / run_cluster.
# Ungated numbers; fails on any error (~3 s).
step "calibration probe (fleet + cluster kernels, one round)" \
  cargo run -q --release --example calibration_stages 1

# One initialisation per prepared function, at full size: the
# release-only case of tests/restore_fidelity.rs (an ecommerce profile's
# 64 MiB heap), whose image, store clock and boot latencies must equal
# those of a compile and a template generation made separately. The debug
# `cargo test` step runs the light profiles and skips this one (~3 s).
step "one-init artefacts (ecommerce profile, release)" \
  cargo test -q --release --test restore_fidelity -- one_initialisation

# The allocation budgets (tests/alloc_budget.rs) again, with their output:
# one line per budget — allocation calls and bytes on a small and a large
# workload, and the growth per added object, page or event — so every
# check log carries the per-operation counts next to the stage times. The
# debug `cargo test` step above already gates them; this run is for the
# record (under a second once its release build exists).
step "allocation budgets (calls and bytes per operation)" \
  cargo test -q --release --test alloc_budget -- --nocapture

# The seam matrix (tests/seam_matrix.rs) again, with its output: one line
# per boot path naming the fault seams it owns, each observed by booting
# the path with that seam armed alone. The debug `cargo test` step above
# already gates it; this run puts the ownership table in every check log
# (well under a second in release).
step "seam matrix (which boot path owns which fault seam)" \
  cargo test -q --release --test seam_matrix -- --nocapture

# The repo's wall-clock benchmark, in its 1/20-size single-repetition smoke
# mode (~35 s cold, ~25 s warm): builds the standalone harness and runs all
# five workloads once. Timings are not gated here; what is gated is
# `failed 0` on every workload — each workload's simulated outputs are
# folded into a digest pinned under benchmark/expected/, so this is the
# standing guard that `run_fleet` and `run_chaos` (event counts included)
# did not move. See benchmark/README.md for the full run and `compare`.
step "benchmark smoke (five workloads, pinned digests, failed 0)" benchmark_smoke

# The fence. Nothing under benchmark/ nor BENCHMARK.json may change in an
# ordinary PR, and the smoke step above can change it behind one's back:
# run.sh builds --offline but not --locked, so a dependency edge moved in
# any crates/*/Cargo.toml silently rewrites benchmark/Cargo.lock. After
# the build, so that rewrite is caught too.
step "benchmark fence (benchmark/ and BENCHMARK.json untouched)" \
  git diff --exit-code -- benchmark BENCHMARK.json

echo
echo "All checks passed."
echo
echo "  seconds  step"
echo "  -------  ----"
for i in "${!STEP_NAMES[@]}"; do
  echo "  ${STEP_SECS[$i]}  ${STEP_NAMES[$i]}"
done
loc="$(bash tools/loc.sh | awk '$1 == "total" { print $2 }')"
echo
echo "  non-test lines in crates/*/src: ${loc} (tools/loc.sh)"

if [[ -n "${record}" ]]; then
  dirty=0
  git diff --quiet HEAD -- || dirty=1
  for i in "${!STEP_NAMES[@]}"; do
    printf '%s\t%s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
  done | python3 -c '
import datetime, json, sys
arch, cpu, vcpus, commit, dirty, loc = sys.argv[1:]
steps = {}
for row in sys.stdin:
    secs, name = row.rstrip("\n").split("\t", 1)
    steps[name] = float(secs)
line = {
    "kind": "check",
    "date": datetime.date.today().isoformat(),
    "host": {"arch": arch, "cpu": cpu, "vcpus": int(vcpus)},
    "commit": commit,
    "dirty": dirty == "1",
    "steps": steps,
    "loc": int(loc),
}
with open("docs/ledger.jsonl", "a") as out:
    out.write(json.dumps(line, sort_keys=True) + "\n")
' "$(uname -m)" "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
    "$(nproc)" "$(git rev-parse HEAD)" "${dirty}" "${loc}"
  echo
  echo "recorded in docs/ledger.jsonl"
fi
