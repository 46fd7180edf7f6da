//! The two in-process workloads, `cstuner-pipeline` and `zoo-search`,
//! and what every workload reports end to end.
//!
//! Untraced runs call only stable entry points (`run_session` here;
//! `Server::spawn`, the client, `run_campaign` and `KnowledgeBase` in
//! [`crate::serve`]), so a refactor of program internals can break only
//! the traced binary.

use crate::checks::Checker;
use crate::host::{peak_rss_mb, Args};
use crate::inputs::{
    paper_jobs, paper_pairs, tune_request, zoo_pairs, Job, PIPELINE_PER_S, PIPELINE_SEEDS_PER_PAIR,
    ZOO_PER_S, ZOO_SEEDS_PER_PAIR, ZOO_TUNERS,
};
use crate::metrics::Outcome;
use crate::stats::{geomean, median, p90};
use cst_serve::{run_session, FaultSpec, SessionOutcome, TuneRequest};
use cst_telemetry::Telemetry;
use std::hint::black_box;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// What one run measured, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each request unit, ms.
    pub request_ms: Vec<f64>,
    /// Latency of each status or metrics poll, ms.
    pub poll_ms: Vec<f64>,
    /// Tuning sessions completed in the timed part.
    pub sessions: u64,
    /// Wall time of the timed part, s.
    pub wall_s: f64,
    /// `best_time_ms` of every session (virtual ms).
    pub best_ms: Vec<f64>,
    /// Request units attempted.
    pub attempted: u64,
    /// Request units that failed a check.
    pub failed: u64,
    /// Extra context fields (`"key": value` JSON fragments).
    pub notes: Vec<String>,
}

impl Measured {
    /// The end-to-end metrics of this run.
    pub fn end_to_end(&self) -> Outcome {
        let mut o =
            Outcome { attempted: self.attempted, failed: self.failed, ..Outcome::default() };
        o.set("setup_s", median(&self.setup_s));
        o.set("sessions_per_s", self.sessions as f64 / self.wall_s);
        o.set("request_ms_p50", median(&self.request_ms));
        o.set("request_ms_p90", p90(&self.request_ms));
        o.set("ok_ratio", (self.attempted - self.failed) as f64 / self.attempted as f64);
        o.set("best_ms_geomean", geomean(&self.best_ms));
        o.set("peak_rss_mb", peak_rss_mb());
        o.set("poll_ms_p50", median(&self.poll_ms));
        o
    }

    /// Context fields common to every workload.
    pub fn note_samples(&mut self) {
        self.notes.push(format!(
            "\"request_samples\": {}, \"poll_samples\": {}, \"sessions\": {}, \"wall_s\": {}",
            self.request_ms.len(),
            self.poll_ms.len(),
            self.sessions,
            self.wall_s
        ));
    }
}

/// One in-process session through `run_session`.
pub struct SessionRun {
    /// The request.
    pub req: TuneRequest,
    /// Wall time of the `run_session` call, ms.
    pub ms: f64,
    /// Its outcome.
    pub out: SessionOutcome,
    /// Its journal.
    pub journal: Vec<String>,
}

/// Run one session with an in-memory journal (what `cstuner tune
/// --journal` pays), timing only the `run_session` call.
pub fn timed_session(req: &TuneRequest) -> Result<SessionRun, String> {
    let tel = Telemetry::in_memory();
    let t0 = Instant::now();
    let out = run_session(req, &tel, None).map_err(|e| format!("{req:?}: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let journal = tel.lines().expect("in-memory telemetry keeps its lines");
    Ok(SessionRun { req: req.clone(), ms, out, journal })
}

/// Polls per in-process poll sample (one poll takes microseconds).
const POLL_REPEATS: u32 = 10;

/// The in-process equivalent of a daemon's `status` + `metrics` polls:
/// render the process-wide metrics registry and the shared-memo stats,
/// as the `metrics` frame does. Returns the mean wall time of
/// [`POLL_REPEATS`] back-to-back polls, ms.
pub fn poll_in_process() -> f64 {
    let t0 = Instant::now();
    for _ in 0..POLL_REPEATS {
        let snap = cst_telemetry::metrics::global().snapshot();
        let mut frame = String::new();
        snap.write_deterministic(&mut frame);
        snap.write_wall(&mut frame);
        black_box(&frame);
        black_box(cst_gpu_sim::registry::shared_memo_stats());
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(POLL_REPEATS)
}

/// Warm-up sessions of set-up: one quick session per tuner on the
/// `small` arch, which no timed request uses, so process-level lazy
/// state (thread pool, registries) exists before timing starts without
/// filling the timed pairs' record memos.
pub fn warm_up(tuners: &[&str], rep: usize) -> Result<(), String> {
    for tuner in tuners {
        let req = TuneRequest::build(
            Some("j3d7pt"),
            Some("small"),
            Some(tuner),
            Some(rep as u64),
            None,
            true,
            Some(FaultSpec::Off),
        )?;
        run_session(&req, &Telemetry::in_memory(), None).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// The shape of an in-process workload.
pub struct InProcess {
    /// The (stencil, arch) pairs of one round.
    pub pairs: fn() -> Vec<(&'static str, &'static str)>,
    /// Distinct session seeds per listed pair.
    pub seeds_per_pair: usize,
    /// Nominal request units per second of `--seconds`.
    pub per_s: f64,
    /// Tuners run back to back on each job: one request unit.
    pub tuners: &'static [&'static str],
}

/// `cstuner-pipeline`.
pub const PIPELINE: InProcess = InProcess {
    pairs: paper_pairs,
    seeds_per_pair: PIPELINE_SEEDS_PER_PAIR,
    per_s: PIPELINE_PER_S,
    tuners: &["cstuner"],
};

/// `zoo-search`.
pub const ZOO: InProcess = InProcess {
    pairs: zoo_pairs,
    seeds_per_pair: ZOO_SEEDS_PER_PAIR,
    per_s: ZOO_PER_S,
    tuners: &ZOO_TUNERS,
};

/// Set-up of an in-process workload, [`SETUP_REPS`] times: generate the
/// job list, build and validate every request, run the warm-up. Returns
/// the per-repetition seconds and the requests (one list per job).
pub fn setup_in_process(
    args: &Args,
    workload: &InProcess,
) -> Result<(Vec<f64>, Vec<Vec<TuneRequest>>), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut requests = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let jobs: Vec<Job> = paper_jobs(
            args.seed,
            &(workload.pairs)(),
            workload.seeds_per_pair,
            args.seconds,
            workload.per_s,
        );
        let tuners = workload.tuners;
        requests =
            jobs.iter().map(|j| tuners.iter().map(|t| tune_request(j, t)).collect()).collect();
        warm_up(tuners, rep)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok((setup_s, requests))
}

/// Run an in-process workload: each request unit is the list of
/// sessions of one job, run back to back by one closed-loop client and
/// followed by one in-process poll. Checks run after the timed part.
fn in_process(args: &Args, workload: &InProcess) -> Result<Measured, String> {
    let (setup_s, units) = setup_in_process(args, workload)?;
    let mut m = Measured { setup_s, ..Measured::default() };
    let mut runs: Vec<Vec<SessionRun>> = Vec::with_capacity(units.len());
    let t0 = Instant::now();
    for unit in &units {
        let sessions = unit.iter().map(timed_session).collect::<Result<Vec<_>, _>>()?;
        m.request_ms.push(sessions.iter().map(|s| s.ms).sum());
        m.poll_ms.push(poll_in_process());
        runs.push(sessions);
    }
    m.wall_s = t0.elapsed().as_secs_f64();
    let mut checker = Checker::default();
    for sessions in &runs {
        m.attempted += 1;
        let mut ok = true;
        for s in sessions {
            m.sessions += 1;
            m.best_ms.push(s.out.outcome.best_time_ms);
            let r = checker.session(&s.req, &s.out, &s.journal);
            ok &= checker.tally(&format!("{} {} {}", s.req.tuner, s.req.stencil, s.req.arch), r);
        }
        m.failed += u64::from(!ok);
    }
    m.note_samples();
    Ok(m)
}

/// `cstuner-pipeline`: one full-budget csTuner session per request.
pub fn pipeline(args: &Args) -> Result<Measured, String> {
    in_process(args, &PIPELINE)
}

/// `zoo-search`: one seven-tuner shootout per request.
pub fn zoo(args: &Args) -> Result<Measured, String> {
    in_process(args, &ZOO)
}
