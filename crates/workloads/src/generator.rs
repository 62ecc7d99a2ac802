//! Seeded request-trace generation for end-to-end and policy experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtime::SimNanos;

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Virtual arrival time.
    pub arrival: SimNanos,
    /// Index of the target function in the caller's function list.
    pub function: usize,
}

/// How requests distribute over functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Uniform across functions.
    Uniform,
    /// Zipf-like skew with the given exponent (≥ 0; larger = more skewed).
    Zipf {
        /// Skew exponent (1.0 is the classic web skew).
        exponent: f64,
    },
}

/// The arrival process of an open-loop trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_hz`.
    Poisson {
        /// Mean arrival rate, requests per (virtual) second.
        rate_hz: f64,
    },
    /// A Poisson baseline at `rate_hz` punctuated by periodic bursts:
    /// every `every`, `size` extra requests land spread uniformly over
    /// `width` — the flash-crowd shape that drives peak density. A `size`
    /// of 0 is the baseline alone, and the bursts end at the last period a
    /// `u64` of nanoseconds can name.
    Bursty {
        /// Baseline arrival rate, requests per second.
        rate_hz: f64,
        /// Burst period.
        every: SimNanos,
        /// Requests per burst.
        size: usize,
        /// Window the burst's requests spread over.
        width: SimNanos,
    },
}

/// Everything that determines an open-loop trace — same spec, same bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Functions in the caller's catalogue.
    pub functions: usize,
    /// Requests to generate.
    pub count: usize,
    /// The arrival process.
    pub arrivals: Arrivals,
    /// How requests distribute over functions.
    pub popularity: Popularity,
    /// RNG seed.
    pub seed: u64,
}

/// Per-rank weights for `popularity` over `functions` ranks.
fn weights(popularity: Popularity, functions: usize) -> Vec<f64> {
    match popularity {
        Popularity::Uniform => vec![1.0; functions],
        Popularity::Zipf { exponent } => (1..=functions)
            .map(|r| 1.0 / (r as f64).powf(exponent.max(0.0)))
            .collect(),
    }
}

/// Generates an open-loop trace from `spec`: arrivals first (Poisson or
/// bursty, then time-sorted), function picks second via a binary-searched
/// popularity CDF — O(log n) per request, so fleet-scale traces over 10k+
/// functions generate in linear-ish time. Deterministic in `spec`.
///
/// # Panics
///
/// Panics if `spec.functions == 0` or any rate is not positive.
pub fn open_loop(spec: &TraceSpec) -> Vec<Request> {
    assert!(spec.functions > 0, "need at least one function");
    let mut rng = StdRng::seed_from_u64(spec.seed);

    let mut arrivals: Vec<u64> = Vec::with_capacity(spec.count);
    match spec.arrivals {
        Arrivals::Poisson { rate_hz } => {
            assert!(rate_hz > 0.0, "rate must be positive");
            let mut now_ns = 0.0f64;
            for _ in 0..spec.count {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                now_ns += -u.ln() / rate_hz * 1e9;
                arrivals.push(now_ns as u64);
            }
        }
        Arrivals::Bursty {
            rate_hz,
            every,
            size,
            width,
        } => {
            assert!(rate_hz > 0.0, "rate must be positive");
            assert!(!every.is_zero(), "burst period must be positive");
            let mut now_ns = 0.0f64;
            // `None` once no burst is left: each one adds requests, so the
            // loop below ends with `count` or with the bursts.
            let mut next_burst = (size > 0).then_some(every.as_nanos());
            while arrivals.len() < spec.count {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                now_ns += -u.ln() / rate_hz * 1e9;
                while let Some(burst) =
                    next_burst.filter(|&at| at as f64 <= now_ns && arrivals.len() < spec.count)
                {
                    for _ in 0..size.min(spec.count - arrivals.len()) {
                        let jitter: f64 = rng.gen_range(0.0..1.0);
                        let offset = (jitter * width.as_nanos() as f64) as u64;
                        arrivals.push(burst.saturating_add(offset));
                    }
                    next_burst = burst.checked_add(every.as_nanos());
                }
                if arrivals.len() < spec.count {
                    arrivals.push(now_ns as u64);
                }
            }
            arrivals.sort_unstable();
        }
    }

    // Popularity CDF once, binary search per request.
    let mut cum = weights(spec.popularity, spec.functions);
    let mut running = 0.0f64;
    for w in &mut cum {
        running += *w;
        *w = running;
    }
    let total = running;
    arrivals
        .into_iter()
        .map(|ns| {
            let pick: f64 = rng.gen_range(0.0..total);
            let function = cum.partition_point(|&c| c <= pick).min(spec.functions - 1);
            Request {
                arrival: SimNanos::from_nanos(ns),
                function,
            }
        })
        .collect()
}

/// Generates `count` requests with exponential inter-arrivals at `rate_hz`
/// over `functions` functions, deterministically from `seed`.
///
/// The closed-loop-era generator, kept bit-stable for the pinned bench
/// exports; new code should prefer [`open_loop`], which adds bursty
/// arrivals and scales the popularity pick to fleet-size catalogues.
///
/// # Panics
///
/// Panics if `functions == 0` or `rate_hz <= 0`.
pub fn trace(
    functions: usize,
    count: usize,
    rate_hz: f64,
    popularity: Popularity,
    seed: u64,
) -> Vec<Request> {
    assert!(functions > 0, "need at least one function");
    assert!(rate_hz > 0.0, "rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);

    // Zipf CDF over ranks.
    let weights: Vec<f64> = match popularity {
        Popularity::Uniform => vec![1.0; functions],
        Popularity::Zipf { exponent } => (1..=functions)
            .map(|r| 1.0 / (r as f64).powf(exponent.max(0.0)))
            .collect(),
    };
    let total: f64 = weights.iter().sum();

    let mut now_ns = 0.0f64;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        // Exponential inter-arrival via inverse transform.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        now_ns += -u.ln() / rate_hz * 1e9;
        let mut pick: f64 = rng.gen_range(0.0..total);
        let mut function = functions - 1;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                function = i;
                break;
            }
            pick -= w;
        }
        out.push(Request {
            arrival: SimNanos::from_nanos(now_ns as u64),
            function,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bursty_trace_ends_without_bursts_and_past_the_last_nameable_one() {
        // One baseline gap is ~10^21 ns, past `u64::MAX`: with `size` 0 the
        // burst loop used to step its period forever once it saturated.
        let spec = |size| TraceSpec {
            functions: 1,
            count: 2,
            arrivals: Arrivals::Bursty {
                rate_hz: 1e-12,
                every: SimNanos::from_secs(1),
                size,
                width: SimNanos::ZERO,
            },
            popularity: Popularity::Uniform,
            seed: 5,
        };
        for size in [0, 1, 3] {
            assert_eq!(open_loop(&spec(size)).len(), 2, "size {size}");
        }
    }

    #[test]
    fn deterministic_and_sorted() {
        let a = trace(4, 100, 50.0, Popularity::Uniform, 9);
        let b = trace(4, 100, 50.0, Popularity::Uniform, 9);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn rate_controls_density() {
        let slow = trace(1, 200, 10.0, Popularity::Uniform, 1);
        let fast = trace(1, 200, 1_000.0, Popularity::Uniform, 1);
        assert!(fast.last().unwrap().arrival < slow.last().unwrap().arrival);
        // Mean inter-arrival of the slow trace ≈ 100 ms.
        let span = slow.last().unwrap().arrival.as_secs_f64();
        assert!((10.0..30.0).contains(&span), "span {span}s");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let reqs = trace(10, 5_000, 100.0, Popularity::Zipf { exponent: 1.2 }, 3);
        let mut counts = [0usize; 10];
        for r in &reqs {
            counts[r.function] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "{counts:?}");
        let uniform = trace(10, 5_000, 100.0, Popularity::Uniform, 3);
        let mut ucounts = [0usize; 10];
        for r in &uniform {
            ucounts[r.function] += 1;
        }
        assert!(ucounts[0] < ucounts[9] * 2, "{ucounts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn zero_functions_rejected() {
        let _ = trace(0, 1, 1.0, Popularity::Uniform, 0);
    }

    #[test]
    fn open_loop_poisson_is_deterministic_and_sorted() {
        let spec = TraceSpec {
            functions: 10_000,
            count: 20_000,
            arrivals: Arrivals::Poisson { rate_hz: 5_000.0 },
            popularity: Popularity::Zipf { exponent: 1.0 },
            seed: 0x7001,
        };
        let a = open_loop(&spec);
        let b = open_loop(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20_000);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.function < 10_000));
    }

    #[test]
    fn open_loop_zipf_matches_linear_scan_skew() {
        // The binary-searched CDF must skew the same way the closed-loop
        // generator's linear scan does: rank 0 dominates the tail.
        let spec = TraceSpec {
            functions: 1_000,
            count: 20_000,
            arrivals: Arrivals::Poisson { rate_hz: 1_000.0 },
            popularity: Popularity::Zipf { exponent: 1.2 },
            seed: 11,
        };
        let reqs = open_loop(&spec);
        let rank0 = reqs.iter().filter(|r| r.function == 0).count();
        let tail = reqs.iter().filter(|r| r.function >= 500).count();
        assert!(rank0 > 1_000, "rank0 {rank0}");
        assert!(rank0 > tail, "rank0 {rank0} vs tail half {tail}");
    }

    #[test]
    fn bursty_concentrates_arrivals_at_burst_boundaries() {
        let every = SimNanos::from_millis(100);
        let width = SimNanos::from_millis(1);
        let spec = TraceSpec {
            functions: 8,
            count: 2_000,
            arrivals: Arrivals::Bursty {
                rate_hz: 50.0,
                every,
                size: 200,
                width,
            },
            popularity: Popularity::Uniform,
            seed: 42,
        };
        let reqs = open_loop(&spec);
        assert_eq!(reqs.len(), 2_000);
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Most requests sit inside some [k*every, k*every + width) window.
        let in_burst = reqs
            .iter()
            .filter(|r| {
                let ns = r.arrival.as_nanos();
                ns % every.as_nanos() < width.as_nanos()
            })
            .count();
        assert!(in_burst * 2 > reqs.len() * 3 / 2, "in_burst {in_burst}");
        // The baseline still trickles between bursts.
        assert!(in_burst < reqs.len(), "baseline vanished");
    }
}
