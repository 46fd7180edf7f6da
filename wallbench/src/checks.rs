//! Output checks. Every request unit passes all of them or counts as
//! failed; a failure is reported on standard error with its reason.

use cst_baselines::zoo;
use cst_gpu_sim::GpuArch;
use cst_serve::{find_stencil, SessionOutcome, TuneRequest};
use cst_space::Setting;
use cst_telemetry::schema::validate_journal;
use cst_telemetry::strip_wall_fields;
use cstuner_core::{Evaluator, SimEvaluator};
use std::collections::HashMap;

/// Checks a session's outputs against the program's own validity rules.
#[derive(Default)]
pub struct Checker {
    evals: HashMap<(String, String), SimEvaluator>,
    reported: usize,
}

/// Failures printed in full before the checker goes quiet.
const REPORT_LIMIT: usize = 10;

/// Whether `tuner` promises a valid best setting. Every tuner does
/// except those whose ask/tell optimizer declares
/// `asks_valid_only() == false` (grid and opentuner): they search the raw
/// parameter space, and the simulator charges a constraint-breaking but
/// launchable setting a finite time, so such a setting can be their best.
fn promises_valid(tuner: &str) -> bool {
    zoo::find(tuner).and_then(|e| e.optimizer()).map_or(true, |o| o.asks_valid_only())
}

impl Checker {
    fn eval(&mut self, stencil: &str, arch: &str) -> &SimEvaluator {
        self.evals.entry((stencil.to_string(), arch.to_string())).or_insert_with(|| {
            let kernel = find_stencil(stencil).expect("checked stencils are registered");
            let arch = GpuArch::by_name(arch).expect("checked archs are registered");
            SimEvaluator::new(kernel.spec, arch, 0)
        })
    }

    /// Check `req`'s best setting against what its tuner promises: valid
    /// if the tuner asks only valid settings, launchable (a finite
    /// noise-free model time) otherwise.
    fn best_setting(&mut self, req: &TuneRequest, setting: &Setting) -> Result<(), String> {
        let eval = self.eval(&req.stencil, &req.arch);
        if promises_valid(&req.tuner) {
            if !eval.is_valid(setting) {
                return Err(format!("best setting `{setting}` is not valid"));
            }
        } else if !eval.sim().kernel_time_ms(setting).is_finite() {
            return Err(format!("best setting `{setting}` cannot launch"));
        }
        Ok(())
    }

    /// Check one finished in-process session: a finite outcome, a best
    /// setting its tuner stands behind and a schema-valid journal.
    pub fn session(
        &mut self,
        req: &TuneRequest,
        out: &SessionOutcome,
        journal: &[String],
    ) -> Result<(), String> {
        let o = &out.outcome;
        if !o.best_time_ms.is_finite() || !out.baseline_ms.is_finite() || !o.search_s.is_finite() {
            return Err(format!("non-finite outcome: best {} ms", o.best_time_ms));
        }
        self.best_setting(req, &o.best_setting)?;
        validate_journal(journal).map(|_| ()).map_err(|e| format!("journal: {e}"))
    }

    /// Check a served session's reported best (`best_ms`, setting text)
    /// and its streamed journal.
    pub fn served(
        &mut self,
        req: &TuneRequest,
        best_ms: f64,
        setting: &str,
        journal: &[String],
    ) -> Result<(), String> {
        if !best_ms.is_finite() {
            return Err(format!("non-finite served best {best_ms} ms"));
        }
        let parsed: Setting = setting.parse().map_err(|e| format!("setting `{setting}`: {e}"))?;
        self.best_setting(req, &parsed).map_err(|e| format!("served {e}"))?;
        validate_journal(journal).map(|_| ()).map_err(|e| format!("journal: {e}"))
    }

    /// Count a check result: `true` if it passed. Failures are printed
    /// (the first few in full).
    pub fn tally(&mut self, what: &str, result: Result<(), String>) -> bool {
        match result {
            Ok(()) => true,
            Err(e) => {
                self.reported += 1;
                if self.reported <= REPORT_LIMIT {
                    eprintln!("check failed: {what}: {e}");
                }
                false
            }
        }
    }
}

/// Compare two journals after stripping wall-clock fields.
pub fn same_stream(a: &[String], b: &[String]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} vs {} records", a.len(), b.len()));
    }
    match a.iter().zip(b).position(|(x, y)| strip_wall_fields(x) != strip_wall_fields(y)) {
        None => Ok(()),
        Some(i) => Err(format!("record {i} differs")),
    }
}
