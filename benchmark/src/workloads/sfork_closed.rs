//! `sfork-closed`: the platform's per-request path. One op is one request
//! served to completion through real instance pools with fork boot. The
//! event queue carries two events per request against roughly 0.6 ms of
//! boot + exec, so a queue or arena change should not move this workload;
//! a `simtime` metrics/tracer change should.

use std::cell::RefCell;
use std::rc::Rc;

use catalyzer::{BootMode, Catalyzer, CatalyzerEngine, Template};
use platform::admission::AdmissionController;
use platform::simulate::TraceRequest;
use platform::{AdmissionPolicy, Gateway, InstancePool, InvokeRequest, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtimes::AppProfile;
use sandbox::BootCtx;
use simtime::{CostModel, MetricsRegistry, SimClock, SimNanos, Tracer};
use workloads::generator::{Arrivals, Popularity, TraceSpec};

use super::{
    micros, nanos_per_call, open_loop_trace, pooled_rate, probe_bootctx_span, shuffle, timed,
    Digest, Layers, Rep, Workload,
};
use crate::spans::Recorder;
use crate::stats::{median, percentile};

const REQUESTS: usize = 4_000;
const KEEP_ALIVE: SimNanos = SimNanos::from_millis(50);
const MAX_IDLE: usize = 2;

pub struct SforkClosed {
    model: CostModel,
    profiles: Vec<AppProfile>,
    trace: Vec<TraceRequest>,
    /// One system for the whole run: templates are generated in set-up.
    system: Rc<RefCell<Catalyzer>>,
    /// Boots of the latest repetition, for the probes' attribution.
    boots: u64,
}

impl Workload for SforkClosed {
    const NAME: &'static str = "sfork-closed";
    const OP: &'static str = "request";

    fn prepare(seed: u64, divisor: usize) -> SforkClosed {
        let model = CostModel::experimental_machine();
        let profiles = AppProfile::catalogue();
        let mut trace = open_loop_trace(&TraceSpec {
            functions: profiles.len(),
            count: REQUESTS / divisor,
            arrivals: Arrivals::Poisson { rate_hz: 200.0 },
            popularity: Popularity::Zipf { exponent: 1.0 },
            seed,
        });
        // Stratify the function picks: exact Zipf(1.0) shares in a seeded
        // order. The ten profiles differ in cost by two orders of
        // magnitude, so sampled shares would make the *amount* of work —
        // and peak memory — depend on the seed; the seed should only
        // decide order and timing.
        let weights: Vec<f64> = (1..=profiles.len()).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut picks: Vec<usize> = Vec::with_capacity(trace.len());
        for (function, weight) in weights.iter().enumerate() {
            let share = (trace.len() as f64 * weight / total).round() as usize;
            picks.extend([function].repeat(share));
        }
        picks.resize(trace.len(), 0);
        shuffle(&mut picks, &mut StdRng::seed_from_u64(seed));
        for (request, function) in trace.iter_mut().zip(picks) {
            request.function = function;
        }
        let mut system = Catalyzer::new();
        for profile in &profiles {
            system
                .ensure_template(profile, &model)
                .expect("template generation for a catalogue profile");
        }
        SforkClosed {
            model,
            profiles,
            trace,
            system: Rc::new(RefCell::new(system)),
            boots: 0,
        }
    }

    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let requests = self.trace.len() as u64;
        let mut rep = Rep::new(requests, "nearest-rank");
        rec.next_op();
        let system = Rc::clone(&self.system);
        let report = rec.span("sfork-closed.run", |_| {
            Simulation::new(self.profiles.clone())
                .with_engine(move |_| CatalyzerEngine::new(Rc::clone(&system), BootMode::Fork))
                .with_model(self.model.clone())
                .with_keep_alive(KEEP_ALIVE)
                .with_max_idle(MAX_IDLE)
                .with_admission(AdmissionPolicy::unlimited())
                .run(&self.trace)
        });
        let report = match report {
            Ok(report) => report,
            Err(err) => {
                rep.failed = requests;
                rep.violations.push(format!("Simulation::run: {err}"));
                return rep;
            }
        };
        rep.require(
            report.completed + report.shed() + report.failed == report.requests,
            || {
                format!(
                    "conservation: {} completed + {} shed + {} failed != {} requests",
                    report.completed,
                    report.shed(),
                    report.failed,
                    report.requests
                )
            },
        );
        rep.require(report.reuses > 0 && report.pools.boots > 0, || {
            format!(
                "{} reuses, {} boots: both paths must be live",
                report.reuses, report.pools.boots
            )
        });
        let mut digest = Digest::new();
        digest.words([
            report.requests,
            report.admitted,
            report.completed,
            report.failed,
            report.shed(),
            report.goodput,
            report.reuses,
            report.pools.boots,
            report.pools.expirations,
            report.peak_in_flight as u64,
            report.events,
        ]);
        for summary in [report.startup, report.end_to_end].into_iter().flatten() {
            digest.words([
                summary.count as u64,
                summary.mean.as_nanos(),
                summary.min.as_nanos(),
                summary.max.as_nanos(),
                summary.p50.as_nanos(),
                summary.p95.as_nanos(),
                summary.p99.as_nanos(),
            ]);
        }
        if let Some(startup) = report.startup {
            rep.sim.startup_mean_us = micros(startup.mean.as_nanos());
            rep.sim.startup_p99_us = micros(startup.p99.as_nanos());
        }
        rep.sim.events = report.events;
        rep.sim.lost = report.shed() + report.failed;
        rep.sim.digest = digest.finish();
        rep.counts = vec![("platform.closed_reuse_share", report.reuse_rate())];
        self.boots = report.pools.boots;
        rep
    }

    fn probes(
        &mut self,
        rec: &mut Recorder,
        rep: &Rep,
        _rep_seconds: f64,
        out: &mut Layers,
    ) -> f64 {
        let model = &self.model;

        // Fork boot + first invocation in the trace's own function mix.
        let mut sim_sfork = 0u64;
        let (mut cow, mut copied) = (0u64, 0u64);
        let sample = &self.trace[..self.trace.len().min(1_000)];
        for request in sample {
            let profile = &self.profiles[request.function];
            let mut ctx = BootCtx::fresh(model);
            rec.next_op();
            let boot = rec.span("core.fork_boot", |_| {
                self.system
                    .borrow_mut()
                    .boot(BootMode::Fork, profile, &mut ctx)
            });
            let mut boot = boot.expect("fork boot from a generated template");
            sim_sfork += boot.boot_latency.as_nanos();
            // First invocation on fresh CoW mappings, second on its own
            // pages: what a booted and what a reused instance pay.
            for name in ["runtimes.invoke_first", "runtimes.invoke_again"] {
                rec.span(name, |_| boot.program.invoke_handler(ctx.clock(), model))
                    .expect("handler of a forked program");
            }
            let stats = boot.program.space.stats();
            cow += stats.cow_faults;
            copied += stats.bytes_copied / memsim::PAGE_SIZE as u64;
            rec.span("core.drop_instance", |_| drop(boot));
        }
        let n = sample.len() as f64;
        let boots = rec.seconds_of("core.fork_boot");
        let first = rec.seconds_of("runtimes.invoke_first");
        let again = rec.seconds_of("runtimes.invoke_again");
        let drops = rec.seconds_of("core.drop_instance");
        let execs: Vec<f64> = first.iter().chain(&again).copied().collect();
        out.set("core.fork_boot_p50_us", median(&boots) * 1e6);
        out.set(
            "core.fork_boot_p99_us",
            percentile(&boots, 0.99).unwrap_or(0.0) * 1e6,
        );
        out.set("core.sim_sfork_us", micros(sim_sfork) / n);
        out.set("runtimes.exec_us", median(&execs) * 1e6);
        out.set("memsim.cow_faults_per_op", cow as f64 / n);
        out.set("memsim.pages_copied_per_op", copied as f64 / n);

        // The two clones an sfork is made of, on templates of our own (the
        // system's are private to it).
        let (mut pages, mut objects) = (Vec::new(), Vec::new());
        for profile in &self.profiles {
            let mut template = Template::generate(profile, model).expect("template generation");
            let program = template.program_mut();
            pages.push((
                program.space.private_pages() as f64,
                timed(rec, "memsim.sfork_clone", 5, || {
                    program.space.sfork_clone("child")
                }),
            ));
            objects.push((
                program.kernel.object_count() as f64,
                timed(rec, "guest-kernel.sfork_clone", 5, || {
                    program.kernel.sfork_clone("child", &SimClock::new(), model)
                }),
            ));
        }
        out.set("memsim.sfork_clone_pages_per_s", pooled_rate(&pages));
        out.set("guest-kernel.sfork_clone_objs_per_s", pooled_rate(&objects));

        // The platform's per-request bookkeeping, one call at a time.
        let engine = || CatalyzerEngine::new(Rc::clone(&self.system), BootMode::Fork);
        let mut gateway =
            Gateway::new(engine(), model.clone()).with_admission(AdmissionPolicy::unlimited());
        for profile in &self.profiles {
            gateway.register(profile.clone());
        }
        for request in sample {
            let name = self.profiles[request.function].name.as_str();
            rec.next_op();
            rec.span("platform.gateway_call", |_| {
                gateway.call(InvokeRequest::at(name, request.arrival))
            })
            .expect("gateway call on a registered function");
        }
        let calls = rec.seconds_of("platform.gateway_call");
        out.set("platform.gateway_call_p50_us", median(&calls) * 1e6);
        out.set(
            "platform.gateway_call_p99_us",
            percentile(&calls, 0.99).unwrap_or(0.0) * 1e6,
        );

        let (mut serve_boot, mut serve_reuse) = (Vec::new(), Vec::new());
        for profile in &self.profiles {
            let mut pool = InstancePool::new(engine(), profile.clone(), KEEP_ALIVE, MAX_IDLE);
            let mut now = SimNanos::ZERO;
            for _ in 0..5 {
                // Past the keep-alive window: the idle instance is reaped
                // and the request boots; right after it: reuse.
                now = now.saturating_add(SimNanos::from_millis(100));
                serve_boot.extend(timed(rec, "platform.pool_serve_boot", 1, || {
                    pool.serve_at(now, model)
                }));
                now = now.saturating_add(SimNanos::from_millis(10));
                serve_reuse.extend(timed(rec, "platform.pool_serve_reuse", 1, || {
                    pool.serve_at(now, model)
                }));
            }
        }
        out.set("platform.pool_serve_boot_us", median(&serve_boot) * 1e6);
        out.set("platform.pool_serve_reuse_us", median(&serve_reuse) * 1e6);

        let mut admission = AdmissionController::new(AdmissionPolicy::unlimited());
        let admit = nanos_per_call(rec, "platform.admission_admit", 20_000, |i| {
            let at = SimNanos::from_micros(i);
            if admission.admit("Java-SPECjbb", at).is_ok() {
                admission.complete("Java-SPECjbb", at, platform::HealthSignal::Healthy);
            }
        });
        out.set("platform.admission_admit_ns", admit);

        let mut metrics = MetricsRegistry::new();
        let add = nanos_per_call(rec, "simtime.metrics_add", 100_000, |i| {
            metrics.add("pool.boot", i)
        });
        let observe = nanos_per_call(rec, "simtime.metrics_observe", 100_000, |i| {
            metrics.observe("admit.wait", SimNanos::from_nanos(i));
        });
        out.set("simtime.metrics_add_ns", add);
        out.set("simtime.metrics_observe_ns", observe);
        let mut tracer = Tracer::new(&SimClock::new());
        let span = nanos_per_call(rec, "simtime.tracer_span", 20_000, |_| {
            tracer.begin("probe");
            tracer.end();
        });
        out.set("simtime.tracer_span_ns", span);
        probe_bootctx_span(rec, model, out);

        // Attribution: the repetition's boots fork, execute on fresh
        // mappings and are torn down; its reuses execute again. Means over
        // the trace's mix (the ten profiles differ by two orders of
        // magnitude) — an approximation, since unpopular functions boot
        // more often than they are requested.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let booted = self.boots as f64;
        booted * (mean(&boots) + mean(&first) + mean(&drops))
            + (rep.ops as f64 - booted) * mean(&again)
    }
}
