//! Request lists generated from the workload seed.
//!
//! Every list is a pure function of `(seed, seconds)`: the same pair
//! gives byte-identical requests in the same order. The seed varies the
//! session seeds and the order of the (stencil, arch) pairs; the set of
//! pairs, tuners and budgets is fixed, so seeds change the inputs
//! without changing how much work a run does.

use cst_serve::{FaultSpec, TuneRequest};
use std::fmt::Write as _;

/// The paper's eight stencils (Table III).
pub const PAPER_STENCILS: [&str; 8] =
    ["j3d7pt", "j3d27pt", "helmholtz", "cheby", "hypterm", "addsgd4", "addsgd6", "rhs4center"];

/// The paper's two GPU testbeds.
pub const ARCHS: [&str; 2] = ["a100", "v100"];

/// The seven tuners of the zoo besides csTuner, in shootout order.
pub const ZOO_TUNERS: [&str; 7] =
    ["garvey", "opentuner", "artemis", "random", "grid", "anneal", "forest"];

/// Tuners that served warm requests go to (they consume `warm` seeds
/// today and are planned to keep doing so).
pub const WARM_TUNERS: [&str; 4] = ["random", "anneal", "forest", "opentuner"];

/// Tuners of the `serve-campaign` campaign spec.
pub const CAMPAIGN_TUNERS: [&str; 4] = ["cstuner", "garvey", "artemis", "grid"];

/// Stencils and archs of the `serve-campaign` campaign spec; the served
/// tune loop uses the same four (stencil, arch) pairs, so both clients
/// share the daemon's record memos.
pub const SERVE_STENCILS: [&str; 2] = ["j3d7pt", "hypterm"];

/// Every `WARM_EVERY`-th served tune carries `warm`.
pub const WARM_EVERY: usize = 5;

/// Fewest request units per run: the p90 rule needs 10 samples beyond it.
pub const MIN_REQUESTS: usize = 100;

/// Nominal request units per second of `--seconds`, per workload. They
/// size the fixed request list so a run takes roughly `--seconds` on a
/// 2-CPU host; the list never depends on how fast the program runs.
pub const PIPELINE_PER_S: f64 = 20.0;
/// See [`PIPELINE_PER_S`]; one unit is a seven-tuner shootout.
pub const ZOO_PER_S: f64 = 25.0;
/// See [`PIPELINE_PER_S`]; one unit is one served tune.
pub const SERVE_PER_S: f64 = 20.0;

/// SplitMix64: a tiny, stable generator, so request lists never depend
/// on another crate's rng stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one workload seed and stream tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A session seed. Kept below 2^24 so it round-trips exactly through
    /// every JSON number path of the wire protocol.
    pub fn session_seed(&mut self) -> u64 {
        self.next_u64() >> 40
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Served tunes a run of `seconds` sends: whole cycles of the 16
/// (tuner, pair) combinations × 5 warm positions, at [`SERVE_PER_S`]
/// nominal tunes per second and never fewer than [`MIN_REQUESTS`].
pub fn served_count(seconds: u64) -> usize {
    let cycle = WARM_TUNERS.len() * SERVE_STENCILS.len() * ARCHS.len() * WARM_EVERY;
    let n = (seconds as f64 * SERVE_PER_S).round() as usize;
    n.max(MIN_REQUESTS).div_ceil(cycle) * cycle
}

/// One (stencil, arch, seed) a session or shootout runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Stencil name.
    pub stencil: &'static str,
    /// Architecture name.
    pub arch: &'static str,
    /// Session seed.
    pub seed: u64,
}

/// Distinct session seeds per (stencil, arch) pair in `cstuner-pipeline`.
pub const PIPELINE_SEEDS_PER_PAIR: usize = 8;
/// Distinct session seeds per listed pair in `zoo-search`.
pub const ZOO_SEEDS_PER_PAIR: usize = 2;

/// Stencils whose seven-tuner shootout takes about twice as long as the
/// other four's (forest and garvey dominate). `zoo-search` lists their
/// pairs twice per round: with equal weights exactly half the requests
/// are slow, and the median request sits in the gap between the two
/// groups, where it moved by 15% from seed to seed.
pub const ZOO_SLOW_STENCILS: [&str; 4] = ["j3d7pt", "j3d27pt", "helmholtz", "cheby"];

/// All 16 paper (stencil, arch) pairs.
pub fn paper_pairs() -> Vec<(&'static str, &'static str)> {
    PAPER_STENCILS.iter().flat_map(|&s| ARCHS.iter().map(move |&a| (s, a))).collect()
}

/// The pairs of one `zoo-search` round: every paper pair, and the
/// [`ZOO_SLOW_STENCILS`] pairs once more.
pub fn zoo_pairs() -> Vec<(&'static str, &'static str)> {
    let mut pairs = paper_pairs();
    pairs.extend(paper_pairs().into_iter().filter(|(s, _)| ZOO_SLOW_STENCILS.contains(s)));
    pairs
}

/// Whole rounds of jobs over `pairs` for a run of `seconds` at `per_s`
/// nominal jobs per second, at least [`MIN_REQUESTS`] jobs.
///
/// The first round holds `pairs.len() × seeds_per_pair` distinct jobs:
/// the pairs in seed-shuffled order, each job with a fresh session seed.
/// Later rounds repeat those jobs in a new shuffled order, the way a
/// tuning service sees the same kernels again. Whole rounds keep every
/// pair's share of the requests fixed, so percentiles do not move with
/// the seed; repeats bound the process-wide record memo, which grows
/// with every distinct session and is never evicted by default. Used by
/// `cstuner-pipeline` (one csTuner session per job) and `zoo-search`
/// (one shootout per job).
pub fn paper_jobs(
    seed: u64,
    pairs: &[(&'static str, &'static str)],
    seeds_per_pair: usize,
    seconds: u64,
    per_s: f64,
) -> Vec<Job> {
    let mut rng = SplitMix::new(seed, 1);
    let mut pairs = pairs.to_vec();
    let mut round = Vec::with_capacity(pairs.len() * seeds_per_pair);
    for _ in 0..seeds_per_pair {
        rng.shuffle(&mut pairs);
        for &(stencil, arch) in &pairs {
            round.push(Job { stencil, arch, seed: rng.session_seed() });
        }
    }
    let target = (seconds as f64 * per_s / round.len() as f64).round() as usize;
    let rounds = target.max(MIN_REQUESTS.div_ceil(round.len())).max(1);
    let mut jobs = round.clone();
    for _ in 1..rounds {
        rng.shuffle(&mut round);
        jobs.extend_from_slice(&round);
    }
    jobs
}

/// One served tune of the `serve-campaign` loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedTune {
    /// Stencil, arch and session seed.
    pub job: Job,
    /// Tuner flag (one of [`WARM_TUNERS`]).
    pub tuner: &'static str,
    /// Whether the request carries `warm`.
    pub warm: bool,
}

/// The four (stencil, arch) pairs both `serve-campaign` clients use.
pub fn serve_pairs() -> Vec<(&'static str, &'static str)> {
    SERVE_STENCILS.iter().flat_map(|&s| ARCHS.iter().map(move |&a| (s, a))).collect()
}

/// `n` served tunes: tuners cycle through [`WARM_TUNERS`], the pairs
/// advance once per tuner cycle, and every [`WARM_EVERY`]-th request is
/// warm (5 is coprime with the 4 × 4 cycle, so warm requests reach every
/// tuner on every pair). Session seeds come from the seed; the mix of
/// tuners, pairs and warm requests is the same for every seed.
pub fn served_tunes(seed: u64, n: usize) -> Vec<ServedTune> {
    let mut rng = SplitMix::new(seed, 2);
    let pairs = serve_pairs();
    (0..n)
        .map(|i| {
            let (stencil, arch) = pairs[(i / WARM_TUNERS.len()) % pairs.len()];
            ServedTune {
                job: Job { stencil, arch, seed: rng.session_seed() },
                tuner: WARM_TUNERS[i % WARM_TUNERS.len()],
                warm: i % WARM_EVERY == WARM_EVERY - 1,
            }
        })
        .collect()
}

/// Campaign seeds for a run of `seconds`: one per 4 s, at least one.
pub fn campaign_seeds(seed: u64, seconds: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed, 3);
    let n = (seconds / 4).max(1);
    let mut seeds: Vec<u64> = Vec::with_capacity(n as usize);
    while seeds.len() < n as usize {
        let s = rng.session_seed();
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

/// The `serve-campaign` campaign spec (JSON, as `cstuner campaign run`
/// reads it): [`SERVE_STENCILS`] × [`ARCHS`] × [`CAMPAIGN_TUNERS`] at the
/// full default budget, faults pinned off.
pub fn campaign_spec_json(name: &str, seed: u64, seconds: u64) -> String {
    let list = |xs: &[&str]| xs.iter().map(|x| format!("\"{x}\"")).collect::<Vec<_>>().join(",");
    let seeds: Vec<String> = campaign_seeds(seed, seconds).iter().map(u64::to_string).collect();
    format!(
        "{{\"campaign\":\"{name}\",\"stencils\":[{}],\"archs\":[{}],\"tuners\":[{}],\
         \"budgets_s\":[100],\"seeds\":[{}],\"quick\":false,\"fault\":\"off\"}}",
        list(&SERVE_STENCILS),
        list(&ARCHS),
        list(&CAMPAIGN_TUNERS),
        seeds.join(",")
    )
}

/// A full-budget, fault-free request: the CLI's `cstuner tune` defaults
/// with `fault: off` pinned, so an ambient fault seed cannot change the
/// work.
pub fn tune_request(job: &Job, tuner: &str) -> TuneRequest {
    TuneRequest::build(
        Some(job.stencil),
        Some(job.arch),
        Some(tuner),
        Some(job.seed),
        None,
        false,
        Some(FaultSpec::Off),
    )
    .expect("benchmark requests name registered stencils, archs and tuners")
}

/// Canonical text of a job list, one job a line (for determinism checks
/// and the run context).
pub fn render_jobs(jobs: &[Job]) -> String {
    let mut s = String::new();
    for j in jobs {
        let _ = writeln!(s, "{} {} {}", j.stencil, j.arch, j.seed);
    }
    s
}

/// Canonical text of a served-tune list, one request a line.
pub fn render_served(tunes: &[ServedTune]) -> String {
    let mut s = String::new();
    for t in tunes {
        let _ =
            writeln!(s, "{} {} {} {} {}", t.job.stencil, t.job.arch, t.job.seed, t.tuner, t.warm);
    }
    s
}
