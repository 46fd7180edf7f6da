//! Composition of explicit and implicit validity: the searchable space.
//!
//! §IV-B: *"csTuner checks the above constraints before generating the
//! search codes so that only non-spilled parameter settings are explored."*
//! Explicit constraints live in `cst-space`; the implicit resource
//! constraints (register spilling, shared-memory overflow) need the GPU
//! model, so the composed check lives here.

use crate::sim::GpuSim;
use cst_space::{OptSpace, Setting};
use rand::Rng;

/// Why a setting is excluded from the search space.
#[derive(Debug, Clone, PartialEq)]
pub enum Invalid {
    /// An explicit Table I constraint failed.
    Explicit(cst_space::ConstraintViolation),
    /// The register estimate exceeds the per-thread file (spill).
    RegisterSpill { regs: f64, limit: u32 },
    /// The shared-memory tile exceeds the per-block limit.
    SharedOverflow { bytes: u64, limit: u32 },
    /// Not a single block fits on an SM (e.g. the block's aggregate
    /// register demand exceeds the SM register file).
    Unlaunchable,
}

impl std::fmt::Display for Invalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invalid::Explicit(v) => write!(f, "explicit constraint: {v}"),
            Invalid::RegisterSpill { regs, limit } => {
                write!(f, "register spill: {regs:.0} > {limit}")
            }
            Invalid::SharedOverflow { bytes, limit } => {
                write!(f, "shared overflow: {bytes} > {limit}")
            }
            Invalid::Unlaunchable => write!(f, "no thread block fits on an SM"),
        }
    }
}

/// The explicit space paired with a simulator for resource checks.
#[derive(Debug, Clone)]
pub struct ValidSpace {
    space: OptSpace,
    sim: GpuSim,
}

impl ValidSpace {
    /// Pair a space with a simulator. The space must have been built for
    /// the simulator's stencil grid.
    ///
    /// # Panics
    /// Panics if the grids disagree.
    pub fn new(space: OptSpace, sim: GpuSim) -> Self {
        assert_eq!(space.grid(), sim.spec().grid, "space/simulator grid mismatch");
        ValidSpace { space, sim }
    }

    /// The underlying explicit space.
    pub fn space(&self) -> &OptSpace {
        &self.space
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &GpuSim {
        &self.sim
    }

    /// Full validity check: explicit constraints, then resources.
    pub fn check(&self, s: &Setting) -> Result<(), Invalid> {
        self.space.check_explicit(s).map_err(Invalid::Explicit)?;
        let f = self.sim.footprint(s);
        if f.shmem_overflow {
            return Err(Invalid::SharedOverflow {
                bytes: f.shmem_per_tb,
                limit: self.sim.arch().shmem_per_tb,
            });
        }
        if f.spilled {
            return Err(Invalid::RegisterSpill {
                regs: f.regs_per_thread,
                limit: self.sim.arch().max_regs_per_thread,
            });
        }
        if f.tb_per_sm == 0 {
            return Err(Invalid::Unlaunchable);
        }
        Ok(())
    }

    /// Whether a setting is fully valid.
    pub fn is_valid(&self, s: &Setting) -> bool {
        self.check(s).is_ok()
    }

    /// Rejection-sample one fully valid setting.
    pub fn random_valid(&self, rng: &mut impl Rng) -> Setting {
        loop {
            let mut s = self.space.random_raw(rng);
            self.space.canonicalize(&mut s);
            if self.is_valid(&s) {
                return s;
            }
        }
    }

    /// Sample `n` *distinct* valid settings.
    pub fn sample_distinct(&self, n: usize, rng: &mut impl Rng) -> Vec<Setting> {
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        // The valid space is astronomically larger than any requested n,
        // so simple rejection terminates fast.
        while out.len() < n {
            let s = self.random_valid(rng);
            if seen.insert(s) {
                out.push(s);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use cst_space::ParamId;
    use cst_stencil::suite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn vs(name: &str) -> ValidSpace {
        let spec = suite::spec_by_name(name).unwrap();
        let space = OptSpace::for_stencil(&spec);
        ValidSpace::new(space, GpuSim::new(spec, GpuArch::a100()))
    }

    #[test]
    fn baseline_is_fully_valid_for_all_kernels() {
        for k in suite::all_kernels() {
            let v = vs(k.spec.name);
            assert!(v.is_valid(&Setting::baseline()), "{}", k.spec.name);
        }
    }

    #[test]
    fn spill_is_reported_as_implicit() {
        let v = vs("rhs4center");
        let s = Setting::baseline().with(ParamId::BMy, 256);
        match v.check(&s) {
            Err(Invalid::RegisterSpill { regs, limit }) => {
                assert!(regs > limit as f64);
            }
            other => panic!("expected spill, got {other:?}"),
        }
    }

    #[test]
    fn random_valid_never_spills() {
        let v = vs("addsgd6");
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let s = v.random_valid(&mut rng);
            assert!(v.is_valid(&s));
            assert!(!v.sim().footprint(&s).spilled);
        }
    }

    #[test]
    fn sample_distinct_yields_unique_settings() {
        let v = vs("j3d7pt");
        let mut rng = StdRng::seed_from_u64(5);
        let samples = v.sample_distinct(64, &mut rng);
        let set: std::collections::HashSet<_> = samples.iter().collect();
        assert_eq!(set.len(), 64);
    }
}
