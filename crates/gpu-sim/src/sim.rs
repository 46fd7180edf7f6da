//! The simulator facade: one stencil on one architecture.

use crate::arch::GpuArch;
use crate::cost::CostBreakdown;
use crate::footprint::{Footprint, ModelParams};
use crate::metrics::{synthesize, MetricsReport};
use crate::precomp::{EvalRecord, ModelPrecomp};
use cst_space::Setting;
use cst_stencil::StencilSpec;
use rand::Rng;
use std::sync::Arc;

/// The GPU performance model for one (stencil, architecture) pair: the
/// stand-in for compiling, launching and profiling kernels on the paper's
/// A100/V100 testbeds. Deterministic unless measurement noise is requested
/// via [`GpuSim::measure`].
///
/// A stateless view over [`ModelPrecomp`]: every query computes the model
/// stages it needs afresh. The only cache on the evaluation path is the
/// evaluator's per-session measurement memo, which makes a repeated
/// measurement free.
///
/// ```
/// use cst_gpu_sim::{GpuArch, GpuSim};
/// use cst_space::Setting;
///
/// let spec = cst_stencil::spec_by_name("j3d7pt").unwrap();
/// let sim = GpuSim::new(spec, GpuArch::a100());
/// let t = sim.kernel_time_ms(&Setting::baseline());
/// assert!(t.is_finite() && t > 0.0);
/// let report = sim.profile(&Setting::baseline());
/// assert_eq!(report.time_ms, t);
/// ```
#[derive(Debug, Clone)]
pub struct GpuSim {
    /// Precomputed model tables for this (stencil, arch, params) triple;
    /// also owns the canonical copies of the three inputs. Built once,
    /// shared by clones.
    precomp: Arc<ModelPrecomp>,
}

impl GpuSim {
    /// Build a simulator with default model constants.
    pub fn new(spec: StencilSpec, arch: GpuArch) -> Self {
        Self::with_params(spec, arch, ModelParams::default())
    }

    /// Build with custom model constants (used by calibration tests and
    /// ablations).
    pub fn with_params(spec: StencilSpec, arch: GpuArch, params: ModelParams) -> Self {
        GpuSim { precomp: Arc::new(ModelPrecomp::new(spec, arch, params)) }
    }

    /// Everything the tuner needs about `s` — footprint, cost breakdown,
    /// virtual-clock charge — from one pass over the model stages.
    pub fn evaluate_full(&self, s: &Setting) -> EvalRecord {
        self.precomp.record(s)
    }

    /// The stencil under test.
    pub fn spec(&self) -> &StencilSpec {
        self.precomp.spec()
    }

    /// The architecture preset.
    pub fn arch(&self) -> &GpuArch {
        self.precomp.arch()
    }

    /// The model constants.
    pub fn params(&self) -> &ModelParams {
        self.precomp.params()
    }

    /// The precomputed model tables.
    pub fn precomp(&self) -> &ModelPrecomp {
        &self.precomp
    }

    /// Resource footprint of a setting.
    pub fn footprint(&self, s: &Setting) -> Footprint {
        self.precomp.footprint(s)
    }

    /// Full cost breakdown of a setting.
    pub fn cost(&self, s: &Setting) -> CostBreakdown {
        self.precomp.cost(s)
    }

    /// Modeled kernel time in milliseconds (deterministic; infinite when
    /// the setting cannot launch).
    pub fn kernel_time_ms(&self, s: &Setting) -> f64 {
        self.cost(s).total_ms
    }

    /// One "measured" run: the modeled time with multiplicative Gaussian
    /// measurement noise (~1σ = 1.5%), as timers on real hardware jitter.
    pub fn measure(&self, s: &Setting, rng: &mut impl Rng) -> f64 {
        noisy_measurement(self.kernel_time_ms(s), rng)
    }
}

/// Apply one draw of measurement noise to a modeled kernel time — the
/// stochastic half of [`GpuSim::measure`], split out so the evaluator can
/// reuse an [`EvalRecord`]'s deterministic time. Non-finite times consume
/// no randomness and pass through unchanged.
pub fn noisy_measurement(t: f64, rng: &mut impl Rng) -> f64 {
    if !t.is_finite() {
        return t;
    }
    // Box–Muller from two uniforms; cheap and dependency-free.
    let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    t * (1.0 + 0.015 * z).max(0.5)
}

impl GpuSim {
    /// Profile a setting: kernel time plus the Nsight-style metric vector.
    pub fn profile(&self, s: &Setting) -> MetricsReport {
        let r = self.evaluate_full(s);
        synthesize(self.spec(), self.arch(), &r.footprint, &r.cost)
    }

    /// Whether the setting launches without spilling registers or
    /// overflowing shared memory.
    pub fn resource_ok(&self, s: &Setting) -> bool {
        self.footprint(s).resource_ok()
    }

    /// Wall-clock seconds charged to the virtual tuning clock for
    /// evaluating this setting (code generation + compile + timed runs).
    pub fn eval_cost_s(&self, s: &Setting) -> f64 {
        self.evaluate_full(s).cost_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_space::ParamId;
    use cst_stencil::suite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measure_jitters_around_model() {
        let sim = GpuSim::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100());
        let s = Setting::baseline();
        let t = sim.kernel_time_ms(&s);
        let mut rng = StdRng::seed_from_u64(1);
        let runs: Vec<f64> = (0..200).map(|_| sim.measure(&s, &mut rng)).collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        assert!((mean / t - 1.0).abs() < 0.01, "mean {mean} vs model {t}");
        assert!(runs.iter().any(|&r| r != t), "noise must not be degenerate");
    }

    #[test]
    fn profile_time_matches_cost() {
        let sim = GpuSim::new(suite::spec_by_name("cheby").unwrap(), GpuArch::v100());
        let s = Setting::baseline().with(ParamId::UseShared, 2);
        assert_eq!(sim.profile(&s).time_ms, sim.kernel_time_ms(&s));
    }

    #[test]
    fn resource_ok_consistent_with_footprint() {
        let sim = GpuSim::new(suite::spec_by_name("rhs4center").unwrap(), GpuArch::a100());
        assert!(sim.resource_ok(&Setting::baseline()));
        assert!(!sim.resource_ok(&Setting::baseline().with(ParamId::BMy, 256)));
    }

    #[test]
    fn eval_cost_includes_compile_floor() {
        let sim = GpuSim::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100());
        assert!(sim.eval_cost_s(&Setting::baseline()) > sim.arch().compile_base_s);
    }

    #[test]
    fn shared_memory_is_more_valuable_on_v100() {
        // §V-D's portability argument in one assertion: V100's small L2
        // makes explicit staging pay more than on A100, so the relative
        // benefit of the classic 2.5-D shared configuration is larger.
        let spec = suite::spec_by_name("j3d27pt").unwrap();
        let plain = Setting::baseline()
            .with(ParamId::TBx, 32)
            .with(ParamId::TBy, 8)
            .with(ParamId::TBz, 1)
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::SB, 512);
        let shared = plain.with(ParamId::UseShared, 2);
        let gain = |arch: GpuArch| {
            let sim = GpuSim::new(spec.clone(), arch);
            sim.kernel_time_ms(&plain) / sim.kernel_time_ms(&shared)
        };
        let gain_a = gain(GpuArch::a100());
        let gain_v = gain(GpuArch::v100());
        assert!(gain_v > gain_a, "V100 gain {gain_v} !> A100 gain {gain_a}");
    }

    #[test]
    fn landscape_median_is_single_digit_slowdown() {
        // Fig. 2 calibration guard: the median valid setting should sit a
        // small factor from the best (the paper's distribution has most
        // mass between 1.25× and 5×), not orders of magnitude away.
        use crate::valid::ValidSpace;
        use cst_space::OptSpace;
        use rand::rngs::StdRng;
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let vs = ValidSpace::new(OptSpace::for_stencil(&spec), GpuSim::new(spec, GpuArch::a100()));
        let mut rng = StdRng::seed_from_u64(4);
        let mut times: Vec<f64> =
            (0..800).map(|_| vs.sim().kernel_time_ms(&vs.random_valid(&mut rng))).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let best = times[0];
        let median = times[times.len() / 2];
        assert!(median / best < 6.0, "median slowdown {} too harsh", median / best);
        assert!(median / best > 1.2, "landscape too flat: {}", median / best);
    }
}
