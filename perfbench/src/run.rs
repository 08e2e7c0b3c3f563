//! The timed phase: a closed loop over whole passes of the job set, one
//! job at a time on one thread.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::job::{run_job, Counters, FailReason};
use crate::setup::Setup;
use crate::trace::{self, Tracer, JOB};

/// splitmix64: the job-order generator, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// How long and how to measure.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of the job order.
    pub seed: u64,
    /// Minimum timed wall time; the run ends at the first pass boundary
    /// after it.
    pub seconds: f64,
    /// Alternate untraced and traced passes (per-layer run) instead of
    /// running every pass untraced (end-to-end run).
    pub trace: bool,
}

impl RunConfig {
    /// Passes to run regardless of `seconds`: two untraced ones, so the
    /// counters can be compared, and as many traced ones when tracing.
    fn min_passes(&self) -> usize {
        if self.trace {
            4
        } else {
            2
        }
    }
}

/// One pass over the whole job set.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Per job, in job-set order: wall time measured outside the tracer.
    pub job_ns: Vec<u64>,
    /// Per job, in job-set order: span self time per name (empty for
    /// an untraced pass).
    pub self_ns: Vec<BTreeMap<&'static str, u64>>,
}

fn encode(counters: &[Counters]) -> Vec<u8> {
    let mut out = Vec::new();
    for c in counters {
        c.encode(&mut out);
    }
    out
}

/// Everything the timed phase measured.
pub struct RunResult {
    /// Jobs attempted.
    pub attempted: u64,
    /// Failed jobs by reason.
    pub failures: BTreeMap<FailReason, u64>,
    /// Completed passes, in order.
    pub passes: Vec<Pass>,
    /// The recorded spans (empty unless traced).
    pub tracer: Tracer,
    /// Per job, in job-set order: the first pass's counters (default
    /// for a failed job).
    pub counters: Vec<Counters>,
    /// Whether every pass produced byte-identical counters.
    pub counters_identical: bool,
}

impl RunResult {
    /// Jobs that failed, any reason.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// The first pass's counters, concatenated in job-set order.
    pub fn counter_bytes(&self) -> Vec<u8> {
        encode(&self.counters)
    }

    /// The first pass's counters summed over the job set.
    pub fn totals(&self) -> Counters {
        let mut t = Counters::default();
        for c in &self.counters {
            t.add(c);
        }
        t
    }
}

/// Runs whole passes over `setup`'s job set until the passes have taken
/// `cfg.seconds` and the minimum pass count is done. Each pass runs the
/// jobs in a fresh seeded permutation. A job whose counters differ from
/// its first pass counts as [`FailReason::StatsDivergence`].
pub fn timed_run(setup: &mut Setup, cfg: &RunConfig) -> RunResult {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut timed_s = 0.0;
    let mut rng = Rng::new(cfg.seed);
    let n = setup.jobs.len();
    let mut first: Vec<Option<Counters>> = vec![None; n];
    let mut failures = BTreeMap::new();
    let mut attempted = 0;
    let mut passes = Vec::new();
    let mut job_id = 0;
    let mut first_pass: Option<Vec<Counters>> = None;
    let mut counters_identical = true;
    while passes.len() < cfg.min_passes() || timed_s < cfg.seconds {
        let pass_start = Instant::now();
        let traced = cfg.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let order = rng.permutation(n);
        let mut job_ns = vec![0; n];
        let mut counters = vec![Counters::default(); n];
        let mut self_ns = vec![BTreeMap::new(); if traced { n } else { 0 }];
        for j in order {
            tracer.begin_job(job_id);
            job_id += 1;
            let span_mark = tracer.spans().len();
            let t = Instant::now();
            let root = tracer.enter(JOB);
            let r = run_job(setup, j, &mut tracer);
            tracer.exit(root);
            job_ns[j] = t.elapsed().as_nanos() as u64;
            if traced {
                self_ns[j] = trace::self_times(tracer.spans(), span_mark);
            }
            attempted += 1;
            let r = r.and_then(|c| match first[j] {
                Some(f) if f != c => Err(FailReason::StatsDivergence),
                _ => Ok(c),
            });
            match r {
                Ok(c) => {
                    first[j].get_or_insert(c);
                    counters[j] = c;
                }
                Err(e) => *failures.entry(e).or_insert(0) += 1,
            }
        }
        match &first_pass {
            None => first_pass = Some(counters),
            Some(f) => counters_identical &= encode(f) == encode(&counters),
        }
        passes.push(Pass {
            traced,
            job_ns,
            self_ns,
        });
        timed_s += pass_start.elapsed().as_secs_f64();
    }
    tracer.set_enabled(false);
    RunResult {
        attempted,
        failures,
        passes,
        tracer,
        counters: first_pass.unwrap_or_default(),
        counters_identical,
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(7).permutation(50);
        assert_eq!(a, Rng::new(7).permutation(50));
        assert_ne!(a, Rng::new(8).permutation(50));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
