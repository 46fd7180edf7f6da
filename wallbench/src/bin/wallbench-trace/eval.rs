//! A benchmark-owned `Evaluator` that forwards every trait method to a
//! `SimEvaluator` and counts calls and wall time of the five layer
//! entry points.

use cst_gpu_sim::{MetricsReport, VirtualClock};
use cst_space::{OptSpace, Setting};
use cst_stencil::StencilSpec;
use cstuner_core::{Evaluator, FaultStats, SimEvaluator};
use std::cell::Cell;
use std::time::Instant;

/// Timed methods, in metric order.
pub const METHODS: [&str; 5] =
    ["evaluate", "evaluate_batch", "random_valid", "is_valid", "profile_offline"];

const EVALUATE: usize = 0;
const EVALUATE_BATCH: usize = 1;
const RANDOM_VALID: usize = 2;
const IS_VALID: usize = 3;
const PROFILE_OFFLINE: usize = 4;

/// Calls and wall time per timed method, plus batch sizes and the
/// evaluator's unique evaluations.
#[derive(Debug, Default, Clone)]
pub struct EvalStats {
    calls: [Cell<u64>; 5],
    ns: [Cell<u64>; 5],
    /// Settings passed to `evaluate_batch`.
    pub batch_settings: u64,
    /// Unique evaluations (memo misses) the evaluator reported.
    pub unique: u64,
}

impl EvalStats {
    fn add(&self, method: usize, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls[method].set(self.calls[method].get() + 1);
        self.ns[method].set(self.ns[method].get() + ns);
    }

    /// Calls of method `m` (index into [`METHODS`]).
    pub fn calls(&self, m: usize) -> u64 {
        self.calls[m].get()
    }

    /// Wall time in method `m`, ms.
    pub fn ms(&self, m: usize) -> f64 {
        self.ns[m].get() as f64 / 1e6
    }

    /// Wall time in all timed methods, ms.
    pub fn total_ms(&self) -> f64 {
        (0..METHODS.len()).map(|m| self.ms(m)).sum()
    }

    /// Add another session's stats to these.
    pub fn merge(&mut self, other: &EvalStats) {
        for m in 0..METHODS.len() {
            self.calls[m].set(self.calls[m].get() + other.calls[m].get());
            self.ns[m].set(self.ns[m].get() + other.ns[m].get());
        }
        self.batch_settings += other.batch_settings;
        self.unique += other.unique;
    }
}

/// The forwarding wrapper.
pub struct TracedEval {
    inner: SimEvaluator,
    /// What the wrapper counted so far.
    pub stats: EvalStats,
}

impl TracedEval {
    /// Wrap a configured evaluator.
    pub fn new(inner: SimEvaluator) -> Self {
        TracedEval { inner, stats: EvalStats::default() }
    }

    /// The counted stats, with the evaluator's unique evaluations.
    pub fn finish(mut self) -> EvalStats {
        self.stats.unique = self.inner.unique_evaluations();
        self.stats
    }
}

impl Evaluator for TracedEval {
    fn spec(&self) -> &StencilSpec {
        self.inner.spec()
    }

    fn space(&self) -> &OptSpace {
        self.inner.space()
    }

    fn is_valid(&self, s: &Setting) -> bool {
        let t0 = Instant::now();
        let v = self.inner.is_valid(s);
        self.stats.add(IS_VALID, t0);
        v
    }

    fn evaluate(&mut self, s: &Setting) -> f64 {
        let t0 = Instant::now();
        let v = self.inner.evaluate(s);
        self.stats.add(EVALUATE, t0);
        v
    }

    fn prefetch(&mut self, batch: &[Setting]) {
        self.inner.prefetch(batch)
    }

    fn evaluate_batch(&mut self, batch: &[Setting]) -> Vec<f64> {
        let t0 = Instant::now();
        let v = self.inner.evaluate_batch(batch);
        self.stats.add(EVALUATE_BATCH, t0);
        self.stats.batch_settings += batch.len() as u64;
        v
    }

    fn profile_offline(&mut self, s: &Setting) -> MetricsReport {
        let t0 = Instant::now();
        let v = self.inner.profile_offline(s);
        self.stats.add(PROFILE_OFFLINE, t0);
        v
    }

    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }

    fn expired(&self) -> bool {
        self.inner.expired()
    }

    fn unique_evaluations(&self) -> u64 {
        self.inner.unique_evaluations()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn random_valid(&mut self) -> Setting {
        let t0 = Instant::now();
        let v = self.inner.random_valid();
        self.stats.add(RANDOM_VALID, t0);
        v
    }
}
