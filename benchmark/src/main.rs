//! The repository's wall-clock benchmark. See `README.md` beside this
//! crate for the metric definitions and the rules of use.
//!
//! ```text
//! run.sh [--seed N] [--seconds S] [--traced] [--smoke] [--bless]    every workload, one child process each
//! run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] ...    one workload, in this process
//! run.sh compare <a.json> <b.json>                                  verdicts between two result files
//! run.sh spec                                                       print BENCHMARK.json
//! ```

mod compare;
mod host;
mod json;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::{metric, obj, render as json, text, Value};

use spans::Recorder;
use workloads::cluster_storm::ClusterStorm;
use workloads::fleet_open::FleetOpen;
use workloads::image_build::ImageBuild;
use workloads::restore_boot::RestoreBoot;
use workloads::sfork_closed::SforkClosed;
use workloads::{Layers, Rep, Workload};

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;
const SMOKE_DIVISOR: usize = 20;
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    bless: bool,
}

fn usage() -> String {
    "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--bless]\n       run.sh compare <a.json> <b.json>\n       run.sh spec".into()
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.traced = value()? != "0",
            "--traced" => opts.traced = true,
            "--smoke" => opts.smoke = true,
            "--bless" => opts.bless = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

fn expected_path(workload: &str) -> String {
    format!("{BENCH_DIR}/expected/{workload}.json")
}

/// The pinned digest for `workload` at this scale, if one is committed.
fn expected_digest(workload: &str, smoke: bool) -> Option<String> {
    let text = std::fs::read_to_string(expected_path(workload)).ok()?;
    let doc = json::parse(&text).ok()?;
    let key = if smoke { "smoke" } else { "full" };
    doc.get(key)?.as_str().map(str::to_string)
}

fn bless(workload: &str, smoke: bool, digest: &str) -> std::io::Result<()> {
    let other = expected_digest(workload, !smoke).unwrap_or_default();
    let (full, small) = if smoke {
        (other.as_str(), digest)
    } else {
        (digest, other.as_str())
    };
    let doc = obj(vec![
        ("seed", Value::U64(spec::DEFAULT_SEED)),
        ("full", Value::Str(full.into())),
        ("smoke", Value::Str(small.into())),
    ]);
    std::fs::create_dir_all(format!("{BENCH_DIR}/expected"))?;
    std::fs::write(expected_path(workload), json(&doc) + "\n")
}

/// The `metrics` object of the contract line, in declaration order.
type Metrics = Vec<(String, Value)>;

/// Tallies attempted and failed operations over checked repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// The pinned digest did not match: nothing this run measures counts.
    wrong_outputs: bool,
}

impl Tally {
    /// Counts `rep`; a repetition whose outputs broke an invariant, or
    /// differ from the warm-up's, fails every one of its operations.
    fn count(&mut self, rep: &mut Rep, reference: Option<&Rep>) {
        if let Some(reference) = reference.filter(|r| r.sim != rep.sim) {
            let differ = format!(
                "simulated outputs {:?} differ from the warm-up's {:?}",
                rep.sim, reference.sim
            );
            rep.violations.push(differ);
        }
        self.attempted += rep.ops;
        self.failed += if rep.violations.is_empty() && !self.wrong_outputs {
            rep.failed
        } else {
            rep.ops
        };
        self.violations.append(&mut rep.violations);
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// The per-layer pass: repetitions alternately without and with a span
/// around each op, then the workload's layer probes. Returns every
/// per-layer metric, in declaration order.
fn traced_pass<W: Workload>(
    workload: &mut W,
    warm: &Rep,
    smoke: bool,
    tally: &mut Tally,
) -> Metrics {
    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let (untraced_n, traced_n) = if smoke { (1, 1) } else { W::TRACED_REPS };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    // Alternate, so that drift hits both sides alike.
    for i in 0..untraced_n.max(traced_n) {
        for (wanted, recorder, seconds) in [
            (untraced_n, &mut off, &mut untraced),
            (traced_n, &mut rec, &mut traced),
        ] {
            if i < wanted {
                let t = Instant::now();
                let mut rep = workload.repetition(recorder);
                seconds.push(t.elapsed().as_secs_f64());
                tally.count(&mut rep, Some(warm));
                last = Some(rep);
            }
        }
    }
    let rep = last.expect("at least one traced repetition");
    let rep_s = stats::median(&traced);
    let mut layers = Layers::default();
    let attributed = workload.probes(&mut rec, &rep, rep_s, &mut layers);
    for &(name, value) in &rep.counts {
        layers.set(name, value);
    }
    let ops = rep.ops as f64;
    let (fast, slow) = (ops / stats::median(&untraced), ops / rep_s);
    let all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    layers.set("harness.ops_per_s_untraced", fast);
    layers.set("harness.ops_per_s_traced", slow);
    layers.set("harness.trace_overhead_share", (fast - slow) / fast);
    layers.set("harness.rep_spread", stats::range_share(&all));
    layers.set("harness.unattributed_share", 1.0 - attributed / rep_s);
    layers.set("harness.failed_share", tally.failed_share());
    layers.set("harness.sim_lost_share", rep.sim.lost as f64 / ops);
    layers.set("harness.sim_startup_mean_us", rep.sim.startup_mean_us);
    layers.set("harness.sim_startup_p99_us", rep.sim.startup_p99_us);
    layers.set("harness.sim_events", rep.sim.events as f64);

    let out_dir = format!("{BENCH_DIR}/out");
    let path = format!("{out_dir}/trace-{}.json", W::NAME);
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, json(&rec.chrome_trace())));
    match written {
        Ok(()) => eprintln!("  {} spans -> {path}", rec.spans().len()),
        Err(err) => tally.violations.push(format!("{path}: {err}")),
    }

    spec::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = layers.get(name);
            if value != 0.0 {
                eprintln!("  {name:<40} {value:>16.3} {unit}");
            }
            (name.to_string(), metric(value, unit))
        })
        .collect()
}

/// The end-to-end pass: repetitions until `seconds` have passed. Returns
/// the detail fields and the three metrics the driver gates.
fn timed_pass<W: Workload>(
    workload: &mut W,
    warm: &Rep,
    setup: &Setup,
    opts: &Options,
    tally: &mut Tally,
) -> (Vec<(&'static str, Value)>, Metrics) {
    let mut off = Recorder::new(false);
    // Smoke has one repetition in all: the warm-up is the one timed.
    let mut rates = Vec::new();
    if opts.smoke {
        rates.push(warm.ops as f64 / setup.warmup_s);
    }
    let timed = Instant::now();
    while !opts.smoke && (rates.is_empty() || timed.elapsed().as_secs_f64() < opts.seconds) {
        let t = Instant::now();
        let mut rep = workload.repetition(&mut off);
        let seconds = t.elapsed().as_secs_f64();
        rates.push(rep.ops as f64 / seconds);
        tally.count(&mut rep, Some(warm));
    }
    let peak = host::peak_rss_mib();
    if peak <= 0.0 {
        tally
            .violations
            .push("VmHWM is not readable from /proc/self/status".into());
    }
    let (q1, ops_per_s, q3) = stats::quartiles(&rates);
    let sim = &warm.sim;
    eprintln!(
        "  {} × {} {}s: {ops_per_s:.1} op/s (q1 {q1:.1}, q3 {q3:.1}); peak RSS {peak:.1} MiB; failed {}/{}",
        rates.len(),
        warm.ops,
        W::OP,
        tally.failed,
        tally.attempted
    );
    eprintln!(
        "  sim: startup mean {:.3} us, p99 {:.3} us ({}), {} events, {} lost to the modelled faults",
        sim.startup_mean_us, sim.startup_p99_us, sim.p99_kind, sim.events, sim.lost
    );
    let (prepare_q1, prepare_median, prepare_q3) = stats::quartiles(&setup.prepare_s);
    let end_to_end = obj(vec![
        (
            "setup_s",
            obj(vec![
                ("value", Value::F64(setup.total_s())),
                ("unit", text("s")),
                ("prepare_n", Value::U64(setup.prepare_s.len() as u64)),
                ("prepare_median_s", Value::F64(prepare_median)),
                ("prepare_q1_s", Value::F64(prepare_q1)),
                ("prepare_q3_s", Value::F64(prepare_q3)),
                ("warmup_s", Value::F64(setup.warmup_s)),
            ]),
        ),
        ("ops_per_s", stats::summary(&rates, "op/s")),
        ("peak_rss_mib", metric(peak, "MiB")),
        ("failed_share", metric(tally.failed_share(), "share")),
        ("sim_startup_mean_us", metric(sim.startup_mean_us, "us")),
        (
            "sim_startup_p99_us",
            obj(vec![
                ("value", Value::F64(sim.startup_p99_us)),
                ("unit", text("us")),
                ("kind", text(sim.p99_kind)),
            ]),
        ),
        ("sim_events", metric(sim.events as f64, "count")),
    ]);
    let detail = vec![
        ("op", text(W::OP)),
        ("ops_per_rep", Value::U64(warm.ops)),
        ("reps", Value::U64(rates.len() as u64)),
        ("rep_spread", Value::F64(stats::range_share(&rates))),
        (
            "rep_ops_per_s",
            Value::Arr(rates.iter().map(|&r| Value::F64(r)).collect()),
        ),
        (
            "sim_lost_share",
            Value::F64(sim.lost as f64 / warm.ops as f64),
        ),
        ("digest", text(&format!("{:#018x}", sim.digest))),
        ("end_to_end", end_to_end),
    ];
    let metrics = vec![
        ("ops_per_s".to_string(), metric(ops_per_s, "op/s")),
        ("peak_rss_mib".to_string(), metric(peak, "MiB")),
        ("setup_s".to_string(), metric(setup.total_s(), "s")),
    ];
    (detail, metrics)
}

/// What set-up cost: every prepare, and the one warm-up repetition.
struct Setup {
    prepare_s: Vec<f64>,
    warmup_s: f64,
}

impl Setup {
    /// `setup_s`: the median prepare plus the warm-up.
    fn total_s(&self) -> f64 {
        stats::median(&self.prepare_s) + self.warmup_s
    }
}

/// Runs one workload in this process and prints its detail line followed
/// by the driver's contract line. Returns whether every check held.
fn run_workload<W: Workload>(opts: &Options) -> bool {
    let started = Instant::now();
    let divisor = if opts.smoke { SMOKE_DIVISOR } else { 1 };
    let mut tally = Tally::default();

    // Set-up: inputs and prepared state are built SETUPS times (one when
    // tracing, where set-up is not reported), then one untimed warm-up
    // repetition takes the first-touch page faults.
    let mut prepare_s = Vec::new();
    let mut workload = None;
    for _ in 0..if opts.traced || opts.smoke { 1 } else { SETUPS } {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::prepare(opts.seed, divisor));
        prepare_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("prepared at least once");
    let t = Instant::now();
    let mut warm = workload.repetition(&mut Recorder::new(false));
    let setup = Setup {
        prepare_s,
        warmup_s: t.elapsed().as_secs_f64(),
    };
    eprintln!(
        "{} seed {} {}: set-up {:.3} s (prepare ×{} median {:.3} s + warm-up {:.3} s)",
        W::NAME,
        opts.seed,
        if opts.smoke { "smoke" } else { "full" },
        setup.total_s(),
        setup.prepare_s.len(),
        stats::median(&setup.prepare_s),
        setup.warmup_s
    );

    let digest = format!("{:#018x}", warm.sim.digest);
    if opts.bless {
        if opts.seed != spec::DEFAULT_SEED {
            tally
                .violations
                .push(format!("--bless pins seed {} only", spec::DEFAULT_SEED));
        } else if let Err(err) = bless(W::NAME, opts.smoke, &digest) {
            tally.violations.push(format!("--bless: {err}"));
        }
    }
    if opts.seed == spec::DEFAULT_SEED {
        let pinned = expected_digest(W::NAME, opts.smoke);
        if pinned.as_deref() != Some(digest.as_str()) {
            tally.wrong_outputs = true;
            tally.violations.push(format!(
                "digest {digest} of the simulated outputs is not the pinned {}",
                pinned.as_deref().unwrap_or("(none; run --bless)")
            ));
        }
    }
    tally.count(&mut warm, None);

    let (mut detail, metrics) = if opts.traced {
        let metrics = traced_pass(&mut workload, &warm, opts.smoke, &mut tally);
        (vec![("per_layer", Value::Obj(metrics.clone()))], metrics)
    } else {
        timed_pass(&mut workload, &warm, &setup, opts, &mut tally)
    };

    let correct = tally.violations.is_empty() && tally.failed == 0;
    for violation in &tally.violations {
        eprintln!("  FAILED CHECK: {violation}");
    }
    eprintln!("  ({:.1} s in all)", started.elapsed().as_secs_f64());

    // Second-to-last line: everything the suite and `compare` use.
    detail.insert(0, ("workload", text(W::NAME)));
    detail.push((
        "violations",
        Value::Arr(tally.violations.iter().map(|v| text(v)).collect()),
    ));
    println!("{}", json(&obj(detail)));
    // Last line: the contract with the builder's driver.
    println!(
        "{}",
        json(&obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::U64(tally.attempted)),
            ("failed", Value::U64(tally.failed)),
            ("metrics", Value::Obj(metrics)),
        ]))
    );
    correct
}

fn dispatch(name: &str, opts: &Options) -> Result<bool, String> {
    Ok(match name {
        RestoreBoot::NAME => run_workload::<RestoreBoot>(opts),
        ImageBuild::NAME => run_workload::<ImageBuild>(opts),
        SforkClosed::NAME => run_workload::<SforkClosed>(opts),
        FleetOpen::NAME => run_workload::<FleetOpen>(opts),
        ClusterStorm::NAME => run_workload::<ClusterStorm>(opts),
        other => {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {other}; one of {}",
                names.join(", ")
            ));
        }
    })
}

/// Runs `workload` in a fresh child process and returns its detail line.
fn child(workload: &str, opts: &Options, traced: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if opts.bless {
        cmd.arg("--bless");
    }
    // stderr is inherited: the child's table lines appear as it runs.
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let _contract = lines.next();
    let detail = lines
        .next()
        .ok_or_else(|| format!("{workload} printed no result"))?;
    let detail = json::parse(detail).map_err(|e| format!("{workload}: {e}"))?;
    Ok((detail, output.status.success()))
}

/// Every workload, each in a fresh child process, sequentially.
fn suite(opts: &Options) -> Result<bool, String> {
    let mut all_ok = true;
    let mut rows = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let (mut detail, ok) = child(name, opts, false)?;
        all_ok &= ok;
        if opts.traced {
            let (traced, ok) = child(name, opts, true)?;
            all_ok &= ok;
            if let (Value::Obj(fields), Some(layers)) = (&mut detail, traced.get("per_layer")) {
                fields.push(("per_layer".into(), layers.clone()));
            }
        }
        rows.push((name.to_string(), detail));
    }
    let result = obj(vec![
        ("schema", Value::Str(compare::SCHEMA.into())),
        ("fingerprint", host::fingerprint()),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::F64(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("workloads", Value::Obj(rows)),
    ]);
    eprint!("{}", compare::table(&result));
    println!("{}", json(&result));
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => Err(usage()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => parse(&args).and_then(|opts| match opts.workload.clone() {
            Some(name) => dispatch(&name, &opts),
            None => suite(&opts),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
