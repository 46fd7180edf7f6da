//! The `serve-campaign` workload: an in-process loopback daemon with two
//! closed-loop clients.
//!
//! - Client A drives a campaign through the daemon, resumes it (every
//!   cell cached), reports it and gates it against itself.
//! - Client B loops served tunes over the campaign's (stencil, arch)
//!   pairs; every [`WARM_EVERY`]-th carries `warm`, pointing at a
//!   read-only knowledge base mined in set-up. Each tune is followed by a
//!   `status` and a `metrics` poll. Its request unit is one served tune,
//!   from connecting to the `session_done` frame.

use crate::checks::{same_stream, Checker};
use crate::host::{available_parallelism, Args};
use crate::inputs::{
    campaign_spec_json, serve_pairs, served_count, served_tunes, tune_request, WARM_EVERY,
};
use crate::trace::SpanLog;
use crate::workload::{timed_session, Measured, SETUP_REPS};
use cst_campaign::{aggregate, campaign_json, gate_campaign, load_cells, run_campaign};
use cst_campaign::{Backend, CampaignSpec, ExecOptions};
use cst_obs::{DriftPolicy, JournalStore};
use cst_serve::proto::{self, metrics_request_line, status_summary_request_line};
use cst_serve::{
    roundtrip, run_session, validate_metrics_frame, Connection, FaultSpec, ServeConfig, Server,
    ServerHandle, TuneRequest,
};
use cst_telemetry::json::{self, Value};
use cst_telemetry::{strip_wall_fields, Telemetry};
use cst_transfer::KnowledgeBase;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Session seeds of the knowledge-base mining runs (fixed, so the KB and
/// hence the warm-request cost are the same for every workload seed).
const KB_SEEDS: [u64; 2] = [1, 2];

/// Daemon worker threads.
const WORKERS: usize = 2;

/// Every `SAMPLE_EVERY`-th served stream is compared with a direct run.
const SAMPLE_EVERY: usize = 10;

/// Served tunes traced together in the traced run, alternating with an
/// equal untraced block (one full cycle of the warm tuners).
pub const TRACE_BLOCK: usize = 4;

/// A spawned daemon plus everything its clients need.
pub struct Rig {
    /// Daemon address.
    pub addr: String,
    handle: ServerHandle,
    /// Store directory holding the warm-start `kb.json`.
    pub kb_dir: PathBuf,
    /// Records in the knowledge base.
    pub kb_records: usize,
    /// Size of `kb.json`, bytes.
    pub kb_bytes: u64,
    /// Client B's requests.
    pub tunes: Vec<TuneRequest>,
    /// Client A's campaign.
    pub spec: CampaignSpec,
    /// Client A's campaign store.
    pub campaign_dir: PathBuf,
}

impl Rig {
    /// Ask the daemon to drain and stop, then join its threads.
    pub fn shutdown(self) -> Result<(), String> {
        let bye = roundtrip(&self.addr, &proto::shutdown_request_line())?;
        self.handle.join();
        match bye.last().and_then(|f| proto::frame_type(f)) {
            Some(t) if t == "bye" => Ok(()),
            _ => Err(format!("shutdown answered {bye:?}")),
        }
    }
}

/// Mine a knowledge base into `dir`: quick random-search sessions on
/// every served pair, archived and indexed. Returns (records, bytes).
pub fn mine_kb(dir: &Path) -> Result<(usize, u64), String> {
    let store = JournalStore::open(dir)?;
    for (stencil, arch) in serve_pairs() {
        for seed in KB_SEEDS {
            let req = TuneRequest::build(
                Some(stencil),
                Some(arch),
                Some("random"),
                Some(seed),
                None,
                true,
                Some(FaultSpec::Off),
            )?;
            let tel = Telemetry::in_memory();
            run_session(&req, &tel, None).map_err(|e| format!("KB mining: {e}"))?;
            let lines = tel.lines().expect("in-memory telemetry keeps its lines");
            let lines: Vec<String> = lines.iter().map(|l| strip_wall_fields(l)).collect();
            store.ingest_lines(&format!("kb-{stencil}-{arch}-s{seed}"), &lines)?;
        }
    }
    let kb = KnowledgeBase::build(&store)?.kb;
    kb.save(dir)?;
    let bytes = std::fs::metadata(KnowledgeBase::path_in(dir)).map_err(|e| e.to_string())?.len();
    Ok((kb.records.len(), bytes))
}

/// One set-up: request lists, KB mining, daemon spawn and handshake.
fn setup_once(args: &Args, work: &Path, rep: usize) -> Result<Rig, String> {
    let kb_dir = work.join(format!("kb-{rep}"));
    let spec = CampaignSpec::from_json(&campaign_spec_json("bench", args.seed, args.seconds))?;
    let warm_path = kb_dir.to_str().ok_or("scratch path is not UTF-8")?.to_string();
    let tunes: Vec<TuneRequest> = served_tunes(args.seed, served_count(args.seconds))
        .iter()
        .map(|t| {
            let mut req = tune_request(&t.job, t.tuner);
            req.warm = t.warm.then(|| warm_path.clone());
            req
        })
        .collect();
    let (kb_records, kb_bytes) = mine_kb(&kb_dir)?;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        archive: Some(work.join(format!("archive-{rep}"))),
        ..ServeConfig::default()
    };
    let handle = Server::spawn(&cfg)?;
    let addr = handle.addr.to_string();
    Connection::connect(&addr)?;
    Ok(Rig {
        addr,
        handle,
        kb_dir,
        kb_records,
        kb_bytes,
        tunes,
        spec,
        campaign_dir: work.join(format!("campaign-{rep}")),
    })
}

/// Set up [`SETUP_REPS`] times and keep the last rig. Each earlier rig
/// is stopped, untimed, before the next set-up starts.
pub fn setup(args: &Args, work: &Path) -> Result<(Vec<f64>, Rig), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut rep = 0;
    loop {
        let t0 = Instant::now();
        let rig = setup_once(args, work, rep)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        rep += 1;
        if rep == SETUP_REPS {
            return Ok((setup_s, rig));
        }
        rig.shutdown()?;
    }
}

/// One served tune as client B saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Every frame after `hello`, up to and including `session_done`.
    pub frames: Vec<String>,
    /// Bytes received after `hello`.
    pub bytes: usize,
    /// Connect, `accepted`, first journal record, `session_done`.
    pub marks: [Instant; 4],
    /// The `status` poll reply and its round trip.
    pub status: (Vec<String>, Instant, Instant),
    /// The `metrics` poll reply and its round trip.
    pub metrics: (Vec<String>, Instant, Instant),
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

impl Served {
    /// Connect to `session_done`, ms.
    pub fn total_ms(&self) -> f64 {
        ms(self.marks[0], self.marks[3])
    }

    /// The streamed journal records.
    pub fn journal(&self) -> Vec<String> {
        self.frames.iter().filter(|f| !proto::is_protocol_frame(f)).cloned().collect()
    }

    /// Status and metrics round trips, ms.
    pub fn poll_ms(&self) -> [f64; 2] {
        [ms(self.status.1, self.status.2), ms(self.metrics.1, self.metrics.2)]
    }
}

/// Send one tune and follow it to `session_done`, then poll.
fn serve_one(addr: &str, req: &TuneRequest) -> Result<Served, String> {
    let start = Instant::now();
    let mut conn = Connection::connect(addr)?;
    conn.send_line(&proto::tune_request_line(req))?;
    let (mut accepted, mut first) = (None, None);
    let mut frames = Vec::new();
    let mut bytes = 0;
    let done = loop {
        let frame = conn.next_frame()?.ok_or("daemon closed the stream before session_done")?;
        let now = Instant::now();
        bytes += frame.len() + 1;
        let kind = proto::frame_type(&frame);
        let protocol = proto::is_protocol_frame(&frame);
        frames.push(frame);
        match kind.as_deref() {
            Some("accepted") => accepted = Some(now),
            Some("session_done") => break now,
            Some("busy") | Some("error") => {
                return Err(format!("refused: {}", frames.last().expect("just pushed")))
            }
            _ if !protocol && first.is_none() => first = Some(now),
            _ => {}
        }
    };
    drop(conn);
    let accepted = accepted.ok_or("no accepted frame")?;
    let first = first.unwrap_or(done);
    let s0 = Instant::now();
    let status = roundtrip(addr, &status_summary_request_line())?;
    let s1 = Instant::now();
    let metrics = roundtrip(addr, &metrics_request_line())?;
    let m1 = Instant::now();
    Ok(Served {
        frames,
        bytes,
        marks: [start, accepted, first, done],
        status: (status, s0, s1),
        metrics: (metrics, s1, m1),
    })
}

/// Record a served tune's spans: the request with its admit, queue and
/// stream phases, then the two polls.
fn record_spans(log: &mut SpanLog, i: u64, s: &Served) {
    let [c, a, f, d] = s.marks;
    let root = log.record("serve.request", i, None, c, d);
    log.record("serve.admit", i, Some(root), c, a);
    log.record("serve.queue", i, Some(root), a, f);
    log.record("serve.stream", i, Some(root), f, d);
    log.record("serve.status", i, None, s.status.1, s.status.2);
    log.record("serve.metrics", i, None, s.metrics.1, s.metrics.2);
}

/// Whether served tune `i` is in a traced block of the traced run.
pub fn traced_block(i: usize) -> bool {
    (i / TRACE_BLOCK) % 2 == 1
}

/// Client B: every served tune in order. In a traced run, tunes in
/// traced blocks also record spans.
fn client_b(
    addr: &str,
    tunes: &[TuneRequest],
    mut log: Option<&mut SpanLog>,
) -> Vec<Result<Served, String>> {
    let mut out = Vec::with_capacity(tunes.len());
    for (i, req) in tunes.iter().enumerate() {
        let served = serve_one(addr, req);
        if let (Some(log), Ok(s)) = (log.as_deref_mut(), &served) {
            if traced_block(i) {
                record_spans(log, i as u64, s);
            }
        }
        out.push(served);
    }
    out
}

/// What client A's campaign produced.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Cells executed by the first run.
    pub executed: usize,
    /// Cells in the spec.
    pub cells: usize,
    /// Fresh journals of the first run, with each cell's best ms.
    pub journals: Vec<(TuneRequest, f64, Vec<String>)>,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
    /// Wall time of run, resume, report and gate, ms.
    pub phase_ms: [f64; 4],
}

/// Client A: run, resume, report and gate one campaign.
fn client_a(
    addr: &str,
    spec: &CampaignSpec,
    dir: &Path,
    log: Option<&mut SpanLog>,
) -> CampaignOutcome {
    let mut out = CampaignOutcome::default();
    if let Err(e) = campaign_steps(addr, spec, dir, &mut out, log) {
        out.errors.push(e);
    }
    out
}

fn campaign_steps(
    addr: &str,
    spec: &CampaignSpec,
    dir: &Path,
    out: &mut CampaignOutcome,
    mut log: Option<&mut SpanLog>,
) -> Result<(), String> {
    let store = JournalStore::open(dir)?;
    let opts = ExecOptions { backend: Backend::Daemon(addr.to_string()), stop_after: None };
    out.cells = spec.cells()?.len();
    let mut phase = |k: usize, name: &'static str, t0: Instant, log: &mut Option<&mut SpanLog>| {
        out.phase_ms[k] = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(log) = log.as_deref_mut() {
            log.record(name, 0, None, t0, Instant::now());
        }
    };
    let t0 = Instant::now();
    let first = run_campaign(spec, &store, &opts, &mut |_, _, _, _| {})?;
    phase(0, "campaign.run", t0, &mut log);
    let t0 = Instant::now();
    let resumed = run_campaign(spec, &store, &opts, &mut |_, _, _, _| {})?;
    phase(1, "campaign.resume", t0, &mut log);
    let t0 = Instant::now();
    let (have, missing) = load_cells(spec, &store)?;
    let report = campaign_json(&spec.name, &aggregate(&have), &missing);
    phase(2, "campaign.report", t0, &mut log);
    let t0 = Instant::now();
    let gate = gate_campaign(&have, &have, &DriftPolicy::default());
    phase(3, "campaign.gate", t0, &mut log);

    out.executed = first.executed;
    for c in &first.cells {
        let journal = c.journal.clone().unwrap_or_default();
        out.journals.push((c.cell.request.clone(), c.summary.best_ms, journal));
    }
    let pairs = |run: &cst_campaign::CampaignRun| {
        run.cells.iter().map(|c| (c.cell.clone(), c.summary.clone())).collect::<Vec<_>>()
    };
    let first_report = campaign_json(&spec.name, &aggregate(&pairs(&first)), &[]);
    let resumed_report = campaign_json(&spec.name, &aggregate(&pairs(&resumed)), &[]);
    if first.executed != out.cells || first.cached != 0 {
        out.errors.push(format!("first run executed {} of {} cells", first.executed, out.cells));
    }
    if resumed.executed != 0 || resumed.cached != out.cells {
        out.errors.push(format!("resume executed {} cells", resumed.executed));
    }
    if resumed_report != first_report || report != first_report || !missing.is_empty() {
        out.errors.push("resumed report differs from the first".to_string());
    }
    if gate.exit_code() != 0 {
        out.errors.push("campaign gate against itself did not pass".to_string());
    }
    Ok(())
}

/// Everything a `serve-campaign` run produced.
pub struct ServeRun {
    /// End-to-end measurements.
    pub measured: Measured,
    /// Client B's served tunes that completed, with their request index.
    pub served: Vec<(usize, Served)>,
    /// Client A's campaign.
    pub campaign: CampaignOutcome,
    /// KB records and bytes.
    pub kb: (usize, u64),
    /// The warm-start store.
    pub kb_dir: PathBuf,
    /// Client B's requests.
    pub tunes: Vec<TuneRequest>,
    /// Served tunes refused with a `busy` frame.
    pub busy: usize,
}

fn field_f64(frame: &str, key: &str) -> Option<f64> {
    json::parse(frame).ok()?.get(key).and_then(Value::as_f64)
}

fn field_str(frame: &str, key: &str) -> Option<String> {
    json::parse(frame).ok()?.get(key).and_then(Value::as_str).map(str::to_string)
}

/// A served tune's reported best time, if its `session_done` has one.
fn served_best(s: &Served) -> Option<f64> {
    s.frames.last().and_then(|done| field_f64(done, "best_ms"))
}

/// Check one served tune: a `done` outcome with a finite best and a
/// valid setting, a schema-valid stream, well-formed poll replies.
fn check_served(checker: &mut Checker, req: &TuneRequest, s: &Served) -> Result<(), String> {
    let done = s.frames.last().ok_or("no frames")?;
    if field_str(done, "state").as_deref() != Some("done") {
        return Err(format!("session ended: {done}"));
    }
    let best = served_best(s).ok_or("session_done without best_ms")?;
    let setting = field_str(done, "setting").ok_or("session_done without setting")?;
    checker.served(req, best, &setting, &s.journal())?;
    match s.status.0.as_slice() {
        [f] if proto::frame_type(f).as_deref() == Some("status") => {}
        other => return Err(format!("status poll answered {other:?}")),
    }
    match s.metrics.0.as_slice() {
        [f] => validate_metrics_frame(f),
        other => Err(format!("metrics poll answered {other:?}")),
    }
}

/// Run `serve-campaign`. With `log`s (client B's, client A's), the run
/// is traced: spans are recorded for tunes in traced blocks and for the
/// campaign phases.
pub fn serve_campaign(
    args: &Args,
    work: &Path,
    logs: Option<(&mut SpanLog, &mut SpanLog)>,
) -> Result<ServeRun, String> {
    let (setup_s, rig) = setup(args, work)?;
    let mut m = Measured { setup_s, ..Measured::default() };
    let (log_b, log_a) = match logs {
        Some((b, a)) => (Some(b), Some(a)),
        None => (None, None),
    };
    let t0 = Instant::now();
    let (campaign, served) = if available_parallelism() >= 2 {
        std::thread::scope(|scope| {
            let a = scope.spawn(|| client_a(&rig.addr, &rig.spec, &rig.campaign_dir, log_a));
            let b = client_b(&rig.addr, &rig.tunes, log_b);
            (a.join().expect("client A does not panic"), b)
        })
    } else {
        let a = client_a(&rig.addr, &rig.spec, &rig.campaign_dir, log_a);
        (a, client_b(&rig.addr, &rig.tunes, log_b))
    };
    m.wall_s = t0.elapsed().as_secs_f64();

    let mut checker = Checker::default();
    let mut kept = Vec::with_capacity(served.len());
    let mut busy = 0;
    for (i, (req, s)) in rig.tunes.iter().zip(served).enumerate() {
        m.attempted += 1;
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                busy += usize::from(e.contains("\"busy\""));
                m.failed += u64::from(!checker.tally(&format!("served tune {i}"), Err(e)));
                continue;
            }
        };
        m.sessions += 1;
        m.request_ms.push(s.total_ms());
        m.poll_ms.extend(s.poll_ms());
        m.best_ms.extend(served_best(&s));
        let mut result = check_served(&mut checker, req, &s);
        if result.is_ok() && i % SAMPLE_EVERY == 0 {
            result =
                timed_session(req).and_then(|direct| same_stream(&direct.journal, &s.journal()));
        }
        m.failed += u64::from(!checker.tally(&format!("served tune {i}"), result));
        kept.push((i, s));
    }
    // Client A's units: each campaign cell, plus the resume, report and
    // gate checks as one more.
    m.attempted += campaign.cells as u64 + 1;
    m.sessions += campaign.executed as u64;
    for (req, best, journal) in &campaign.journals {
        let r = if best.is_finite() {
            cst_telemetry::schema::validate_journal(journal).map(|_| ()).map_err(|e| e.to_string())
        } else {
            Err(format!("non-finite campaign best {best}"))
        };
        m.failed += u64::from(!checker.tally(&format!("campaign cell {}", req.stencil), r));
        m.best_ms.push(*best);
    }
    m.failed += campaign.cells.saturating_sub(campaign.journals.len()) as u64;
    for e in &campaign.errors {
        checker.tally("campaign", Err(e.clone()));
    }
    m.failed += u64::from(!campaign.errors.is_empty());
    let warm = rig.tunes.iter().filter(|r| r.warm.is_some()).count();
    m.note_samples();
    m.notes.push(format!(
        "\"kb_records\": {}, \"kb_bytes\": {}, \"warm_share\": {}, \"warm_every\": {WARM_EVERY}, \
         \"campaign_cells\": {}",
        rig.kb_records,
        rig.kb_bytes,
        warm as f64 / rig.tunes.len() as f64,
        campaign.cells
    ));
    let kb = (rig.kb_records, rig.kb_bytes);
    let kb_dir = rig.kb_dir.clone();
    let tunes = rig.tunes.clone();
    rig.shutdown()?;
    Ok(ServeRun { measured: m, served: kept, campaign, kb, kb_dir, tunes, busy })
}
