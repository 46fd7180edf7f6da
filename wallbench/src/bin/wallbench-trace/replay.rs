//! Traced sessions: the csTuner stage replay and traced zoo tuners.
//!
//! Both rebuild the evaluator exactly as `run_session` does (same spec,
//! arch, seed, budget, fault profile, shared memo), wrap it in
//! [`TracedEval`], and record one span per stage or tuner. Their outcomes
//! must equal `run_session`'s bit for bit.

use crate::eval::{EvalStats, TracedEval};
use cst_gpu_sim::{FaultProfile, GpuArch};
use cst_serve::{build_tuner, find_stencil, TuneRequest};
use cst_space::{ParamId, Setting};
use cst_telemetry::Telemetry;
use cstuner_core::search::{evolutionary_search, SearchConfig};
use cstuner_core::{
    combine_metrics, group_from_dataset, sample_space, select_representatives, CsTunerConfig,
    Evaluator, PerfDataset, SimEvaluator, TuningOutcome,
};
use wallbench::trace::SpanLog;

/// The outcome fields `run_session` results are compared on.
#[derive(Debug, Clone, PartialEq)]
pub struct Result3 {
    /// `best_time_ms` bits.
    pub best_bits: u64,
    /// Unique evaluations.
    pub evaluations: u64,
    /// Best setting.
    pub best_setting: Setting,
}

impl Result3 {
    /// The compared fields of an outcome.
    pub fn of(o: &TuningOutcome) -> Self {
        Result3 {
            best_bits: o.best_time_ms.to_bits(),
            evaluations: o.evaluations,
            best_setting: o.best_setting,
        }
    }
}

/// Per-session stage counts of the csTuner replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageCounts {
    /// Dataset records profiled.
    pub records: u64,
    /// Candidates the sampling scorer scored.
    pub scored: u64,
    /// Candidates kept across groups.
    pub kept: u64,
    /// Kernels generated.
    pub kernels: u64,
    /// Bytes of generated CUDA.
    pub bytes: u64,
    /// Unique evaluations made by the search stage.
    pub search_evals: u64,
}

/// The evaluator `run_session` builds for `req`, wrapped.
fn session_evaluator(req: &TuneRequest, tel: &Telemetry) -> TracedEval {
    let kernel = find_stencil(&req.stencil).expect("request names a registered stencil");
    let arch = GpuArch::by_name(&req.arch).expect("request names a registered arch");
    let mut inner = SimEvaluator::with_budget(kernel.spec, arch, req.seed, req.budget_s)
        .with_fault_profile(FaultProfile::off());
    inner.enable_shared_memo();
    inner.set_telemetry(tel);
    let _baseline = inner.sim().kernel_time_ms(&Setting::baseline());
    TracedEval::new(inner)
}

/// Replay a full-budget csTuner session stage by stage through the
/// stages' public functions, recording `core.session` with children
/// `core.dataset`, `core.grouping`, `core.sampling`, `codegen` and
/// `core.search`.
pub fn replay_cstuner(
    req: &TuneRequest,
    log: &mut SpanLog,
    rid: u64,
) -> Result<(Result3, EvalStats, StageCounts), String> {
    let cfg = CsTunerConfig::default();
    let tel = Telemetry::in_memory();
    let seed = req.seed;
    let root = log.begin("core.session", rid);
    let mut eval = session_evaluator(req, &tel);
    let mut counts = StageCounts::default();

    let sp = log.begin("core.dataset", rid);
    let dataset = PerfDataset::collect(&mut eval, cfg.dataset_size, seed);
    log.end(sp);
    counts.records = dataset.records.len() as u64;

    let sp = log.begin("core.grouping", rid);
    let groups: Vec<Vec<ParamId>> = group_from_dataset(&dataset);
    log.end(sp);

    let sp = log.begin("core.sampling", rid);
    let reps =
        select_representatives(&dataset, &combine_metrics(&dataset, cfg.n_metric_collections));
    let sampled = sample_space(&dataset, &groups, &reps, &eval, &cfg.sampling, &tel);
    log.end(sp);
    counts.scored = sampled.scored;
    counts.kept = sampled.combos.iter().map(|c| c.len() as u64).sum();

    let sp = log.begin("codegen", rid);
    if let Some(kernel) = cst_stencil::kernel_by_name(eval.spec().name) {
        let mut left = cfg.codegen_cap;
        'outer: for (k, combos) in sampled.combos.iter().enumerate() {
            for combo in combos {
                if left == 0 {
                    break 'outer;
                }
                let mut s = sampled.base;
                for (&p, &v) in sampled.groups[k].iter().zip(combo) {
                    s.set(p, v);
                }
                counts.bytes += cst_codegen::generate_cuda(&kernel, &s).code.len() as u64;
                counts.kernels += 1;
                left -= 1;
            }
        }
    }
    log.end(sp);

    if eval.expired() {
        return Err(format!("{req:?}: budget expired before search"));
    }
    let search_cfg = SearchConfig {
        ga: cfg.ga,
        top_n: cfg.top_n,
        cv_threshold: cfg.cv_threshold,
        max_iterations: cfg.max_iterations,
    };
    let before = eval.unique_evaluations();
    let sp = log.begin("core.search", rid);
    let result = evolutionary_search(&mut eval, &sampled, &search_cfg, seed, &tel);
    log.end(sp);
    counts.search_evals = eval.unique_evaluations() - before;
    log.end(root);
    let r = Result3 {
        best_bits: result.best_ms.to_bits(),
        evaluations: eval.unique_evaluations(),
        best_setting: result.best_setting,
    };
    Ok((r, eval.finish(), counts))
}

/// Span name of each zoo tuner's traced session.
pub fn tuner_span(flag: &str) -> &'static str {
    match flag {
        "garvey" => "baselines.garvey",
        "opentuner" => "baselines.opentuner",
        "artemis" => "baselines.artemis",
        "random" => "baselines.random",
        "grid" => "baselines.grid",
        "anneal" => "baselines.anneal",
        "forest" => "baselines.forest",
        _ => "baselines.other",
    }
}

/// Run one zoo tuner on the wrapped evaluator under a span named after
/// it.
pub fn traced_tuner(
    req: &TuneRequest,
    log: &mut SpanLog,
    rid: u64,
) -> Result<(Result3, EvalStats), String> {
    let tel = Telemetry::in_memory();
    let mut tuner = build_tuner(&req.tuner, req.quick).expect("request names a registered tuner");
    let sp = log.begin(tuner_span(&req.tuner), rid);
    let mut eval = session_evaluator(req, &tel);
    let out = tuner.tune_with_telemetry(&mut eval, req.seed, &tel).map_err(|e| e.to_string())?;
    log.end(sp);
    Ok((Result3::of(&out), eval.finish()))
}
