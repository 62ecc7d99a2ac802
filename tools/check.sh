#!/usr/bin/env bash
# The gate, local and CI alike: .github/workflows/ci.yml runs this script as
# its one gating step, so every step, its order and the vendored-crate
# exclude list are written here only.
# Fails fast; run from anywhere inside the repo. Each step is timed and a
# wall-clock summary table prints at the end — when the gate feels slow,
# the table says which step to blame.
set -euo pipefail
cd "$(dirname "$0")/.."

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
# Two invariants are enforced here and nowhere else. The ban on wall
# clocks, env reads, host threads and child processes is the
# `disallowed-methods` list in crates/clippy.toml (found from each crates/*
# manifest dir; third_party/, the root package and benchmark/ do not see
# it). The syntactic panic sources in the modules that parse untrusted
# bytes are denied by an inner attribute at the top of each such module.
FIRST_PARTY=(--workspace
  --exclude bytes --exclude crossbeam
  --exclude parking_lot --exclude proptest --exclude rand
  --exclude serde --exclude serde_derive --exclude serde_json)

# A ban-list path that does not resolve (a typo, a renamed item) is only a
# plain warning from clippy's config loader, which -D warnings does not
# promote (measured, clippy 0.1.95): fail on it here, or the entry would
# silently ban nothing. Entries for crates that not every member depends on
# carry `allow-invalid` and print no such warning.
clippy_workspace() {
  local log
  log="$(mktemp)"
  cargo clippy "${FIRST_PARTY[@]}" --all-targets -- -D warnings 2>&1 | tee "${log}"
  if grep -q 'does not refer to' "${log}"; then
    echo "crates/clippy.toml: a disallowed-methods path does not resolve (warning above)" >&2
    return 1
  fi
  rm -f "${log}"
}

# Every first-party crate's unit, integration and doc tests — not just the
# root package's (a bare `cargo test` in a workspace with a root package
# tests only that package). This is where the catalint fixtures, the
# pinned event-engine fixtures, the imagefmt corruption proptests, the
# faultsim suite, and the `compile_fail` doctests on `SimNanos`,
# `InstanceId` and `BootCtx` run.
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
step "catalint (workspace invariants, zero-debt)" cargo run -q -p catalint
step "cargo build --release" cargo build --release
step "cargo test (every first-party crate)" test_workspace

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
