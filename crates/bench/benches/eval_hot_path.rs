//! Micro-benchmarks of the evaluation hot path:
//!
//! - the per-call cost of one simulator query: a full model record, the
//!   footprint stage alone (what a validity check computes), and the
//!   validity → measure → clock-charge triple a fresh candidate costs,
//! - a population measured through `Evaluator::evaluate` on a cold
//!   evaluator (every setting a memo miss).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cst_gpu_sim::{GpuArch, GpuSim};
use cst_space::Setting;
use cst_stencil::suite;
use cstuner_core::{Evaluator, SimEvaluator};
use std::hint::black_box;

fn population(seed: u64, n: usize) -> (SimEvaluator, Vec<Setting>) {
    let spec = suite::spec_by_name("rhs4center").unwrap();
    // Draw with a throwaway evaluator so the measured one starts with an
    // empty measurement memo and an undrawn noise stream.
    let mut drawer = SimEvaluator::new(spec.clone(), GpuArch::a100(), seed);
    let pop: Vec<Setting> = (0..n).map(|_| drawer.random_valid()).collect();
    (SimEvaluator::new(spec, GpuArch::a100(), seed), pop)
}

fn bench_record(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval-hot-path");
    let sim = GpuSim::new(suite::spec_by_name("rhs4center").unwrap(), GpuArch::a100());
    let s = Setting::baseline();
    g.bench_function("record", |b| b.iter(|| black_box(sim.evaluate_full(black_box(&s)))));
    g.bench_function("footprint", |b| b.iter(|| black_box(sim.footprint(black_box(&s)))));
    g.bench_function("triple", |b| {
        b.iter(|| {
            black_box(sim.resource_ok(&s));
            black_box(sim.kernel_time_ms(&s));
            black_box(sim.eval_cost_s(&s));
        })
    });
    g.finish();
}

fn bench_population(c: &mut Criterion) {
    let mut g = c.benchmark_group("population-eval");
    g.sample_size(10);
    for n in [64usize, 256] {
        g.bench_function(format!("serial/{n}"), |b| {
            b.iter_batched(
                || population(9, n),
                |(mut e, pop)| {
                    let out: Vec<f64> = pop.iter().map(|s| e.evaluate(s)).collect();
                    black_box(out)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_record, bench_population);
criterion_main!(benches);
