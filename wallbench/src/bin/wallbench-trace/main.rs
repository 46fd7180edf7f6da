//! Traced run: the per-layer metrics of one workload.
//!
//! `wallbench-trace --workload W --seed N --seconds S --trace 1`
//!
//! Same inputs as the untraced run, in a fresh process. Each request
//! unit runs once untraced through the stable entry point and once
//! traced (in alternating order), so `trace.overhead_ratio` compares the
//! two on identical work; `serve-campaign` alternates traced and
//! untraced blocks of served tunes instead. Spans are written to
//! `.wallbench/trace-<workload>-s<seed>.jsonl` when the run ends.

mod eval;
mod replay;

use eval::{EvalStats, METHODS};
use replay::{replay_cstuner, traced_tuner, Result3, StageCounts};
use std::path::Path;
use std::time::Instant;
use wallbench::checks::Checker;
use wallbench::host::{spin_ms, Args, WorkDir};
use wallbench::inputs::ZOO_TUNERS;
use wallbench::metrics::{Outcome, PER_LAYER};
use wallbench::serve::{serve_campaign, traced_block};
use wallbench::stats::{median, ratio};
use wallbench::trace::{write_spans, SpanLog};
use wallbench::workload::{setup_in_process, timed_session, SessionRun, PIPELINE, ZOO};
use wallbench::{finish, start};

/// Journals the telemetry and obs layers are timed on, at most.
const JOURNAL_SAMPLE: usize = 40;

/// Set every per-layer metric to 0, so layers a workload does not
/// exercise report no work.
fn zeroed() -> Outcome {
    let mut o = Outcome::default();
    for (name, _) in PER_LAYER {
        o.set(name, 0.0);
    }
    o
}

fn mean(total: u64, n: usize) -> f64 {
    ratio(total as f64, n as f64)
}

/// `eval.*` metrics from the merged wrapper stats of `sessions`
/// sessions that spent `session_ms` in total.
fn eval_layer(o: &mut Outcome, s: &EvalStats, sessions: usize, session_ms: f64) {
    const NAMES: [(&str, &str); 5] = [
        ("eval.evaluate.calls", "eval.evaluate.ms"),
        ("eval.evaluate_batch.calls", "eval.evaluate_batch.ms"),
        ("eval.random_valid.calls", "eval.random_valid.ms"),
        ("eval.is_valid.calls", "eval.is_valid.ms"),
        ("eval.profile_offline.calls", "eval.profile_offline.ms"),
    ];
    for (m, (calls, ms)) in NAMES.iter().enumerate().take(METHODS.len()) {
        o.set(calls, mean(s.calls(m), sessions));
        o.set(ms, s.ms(m) / sessions as f64);
    }
    o.set("eval.batch.settings", mean(s.batch_settings, sessions));
    let asked = (s.calls(0) + s.batch_settings) as f64;
    o.set("eval.unique_ratio", ratio(s.unique as f64, asked));
    o.set("eval.share", ratio(s.total_ms(), session_ms));
}

/// Sum of a `counters` record field over journals.
fn counter_sum(journals: &[Vec<String>], key: &str) -> u64 {
    journals
        .iter()
        .flat_map(|j| j.iter().rev().find(|l| l.contains("\"type\":\"counters\"")))
        .filter_map(|l| cst_telemetry::json::parse(l).ok()?.get(key)?.as_u64())
        .sum()
}

/// `telemetry.*`, `obs.*` and `gpu-sim.*` metrics over finished
/// journals and the process-wide shared memos.
fn journal_layers(o: &mut Outcome, journals: &[Vec<String>], work: &Path) -> Result<(), String> {
    let sample = &journals[..journals.len().min(JOURNAL_SAMPLE)];
    let lines: usize = journals.iter().map(Vec::len).sum();
    o.set("telemetry.json.lines_per_session", mean(lines as u64, journals.len()));
    let sample_lines: usize = sample.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    for line in sample.iter().flatten() {
        std::hint::black_box(cst_telemetry::json::parse(line)?);
    }
    o.set(
        "telemetry.json.parse_us_per_line",
        t0.elapsed().as_secs_f64() * 1e6 / sample_lines as f64,
    );
    let store = cst_obs::JournalStore::open(&work.join("obs"))?;
    let (mut summarize_ms, mut ingest_ms) = (Vec::new(), Vec::new());
    for (i, j) in sample.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(cst_obs::summarize("bench", j)?);
        summarize_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let stripped: Vec<String> = j.iter().map(|l| cst_telemetry::strip_wall_fields(l)).collect();
        let t0 = Instant::now();
        store.ingest_lines(&format!("run{i}"), &stripped)?;
        ingest_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    o.set("obs.summarize.ms", median(&summarize_ms));
    o.set("obs.ingest.ms", median(&ingest_ms));
    let hits = counter_sum(journals, "memo_hits") as f64;
    let misses = counter_sum(journals, "memo_misses") as f64;
    o.set("gpu-sim.memo.hit_ratio", ratio(hits, hits + misses));
    let shared = cst_gpu_sim::registry::shared_memo_stats();
    let (sh, sm) = shared.iter().fold((0u64, 0u64), |(h, m), s| (h + s.hits, m + s.misses));
    o.set("gpu-sim.shared_memo.hit_ratio", ratio(sh as f64, (sh + sm) as f64));
    o.set("gpu-sim.shared_memo.entries", shared.iter().map(|s| s.entries as f64).sum());
    Ok(())
}

/// What a traced run hands back besides its metrics.
struct Traced {
    outcome: Outcome,
    logs: Vec<(&'static str, SpanLog)>,
    notes: Vec<String>,
}

/// Check one untraced session and that its traced twin matched it.
fn check_pair(checker: &mut Checker, run: &SessionRun, traced: &Result3) -> bool {
    let what =
        format!("{} {} {} seed {}", run.req.tuner, run.req.stencil, run.req.arch, run.req.seed);
    let session = checker.session(&run.req, &run.out, &run.journal);
    let ok = checker.tally(&what, session);
    let same = if Result3::of(&run.out.outcome) == *traced {
        Ok(())
    } else {
        Err(format!("traced outcome {traced:?} differs from run_session"))
    };
    checker.tally(&what, same) && ok
}

/// `cstuner-pipeline`: run_session and the stage replay on each request.
fn trace_pipeline(args: &Args, work: &Path) -> Result<Traced, String> {
    let (_, units) = setup_in_process(args, &PIPELINE)?;
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let mut o = zeroed();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut stats = EvalStats::default();
    let mut counts: Vec<StageCounts> = Vec::new();
    let mut journals = Vec::new();
    let mut checker = Checker::default();
    for (i, unit) in units.iter().enumerate() {
        let req = &unit[0];
        let mut traced = None;
        let mut replay = |log: &mut SpanLog| -> Result<(), String> {
            let t0 = Instant::now();
            let r = replay_cstuner(req, log, i as u64)?;
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            traced = Some(r);
            Ok(())
        };
        if i % 2 == 1 {
            replay(&mut log)?;
        }
        let run = timed_session(req)?;
        if i % 2 == 0 {
            replay(&mut log)?;
        }
        plain_ms.push(run.ms);
        let (result, s, c) = traced.expect("the replay ran");
        o.attempted += 1;
        o.failed += u64::from(!check_pair(&mut checker, &run, &result));
        stats.merge(&s);
        counts.push(c);
        journals.push(run.journal);
    }
    let n = counts.len();
    let sum = |f: fn(&StageCounts) -> u64| counts.iter().map(f).sum::<u64>();
    for (metric, span) in [
        ("core.dataset.ms", "core.dataset"),
        ("core.grouping.ms", "core.grouping"),
        ("core.sampling.ms", "core.sampling"),
        ("core.search.ms", "core.search"),
        ("core.session.other_ms", "core.session"),
        ("codegen.ms", "codegen"),
    ] {
        o.set(metric, median(&log.self_ms_of(span)));
    }
    o.set("core.dataset.records", mean(sum(|c| c.records), n));
    o.set("core.sampling.scored", mean(sum(|c| c.scored), n));
    o.set("core.sampling.kept_ratio", ratio(sum(|c| c.kept) as f64, sum(|c| c.scored) as f64));
    o.set("core.search.evals", mean(sum(|c| c.search_evals), n));
    o.set("codegen.kernels", mean(sum(|c| c.kernels), n));
    o.set("codegen.bytes", mean(sum(|c| c.bytes), n));
    let session_ms: f64 = log.total_ms_of("core.session").iter().sum();
    eval_layer(&mut o, &stats, n, session_ms);
    journal_layers(&mut o, &journals, work)?;
    o.set("trace.overhead_ratio", median(&traced_ms) / median(&plain_ms));
    Ok(Traced { outcome: o, logs: vec![("client", log)], notes: Vec::new() })
}

/// `zoo-search`: the shootout through run_session and through the
/// wrapper on each request.
fn trace_zoo(args: &Args, work: &Path) -> Result<Traced, String> {
    let (_, units) = setup_in_process(args, &ZOO)?;
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let mut o = zeroed();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut stats = EvalStats::default();
    let mut journals = Vec::new();
    let mut checker = Checker::default();
    for (i, unit) in units.iter().enumerate() {
        let mut traced = Vec::new();
        let mut shootout = |log: &mut SpanLog| -> Result<(), String> {
            let t0 = Instant::now();
            for req in unit {
                traced.push(traced_tuner(req, log, i as u64)?);
            }
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            Ok(())
        };
        if i % 2 == 1 {
            shootout(&mut log)?;
        }
        let runs = unit.iter().map(timed_session).collect::<Result<Vec<_>, _>>()?;
        if i % 2 == 0 {
            shootout(&mut log)?;
        }
        plain_ms.push(runs.iter().map(|r| r.ms).sum());
        o.attempted += 1;
        let mut ok = true;
        for (run, (result, s)) in runs.into_iter().zip(&traced) {
            ok &= check_pair(&mut checker, &run, result);
            stats.merge(s);
            journals.push(run.journal);
        }
        o.failed += u64::from(!ok);
    }
    let mut session_ms = 0.0;
    for tuner in ZOO_TUNERS {
        let span = replay::tuner_span(tuner);
        let ms = log.total_ms_of(span);
        session_ms += ms.iter().sum::<f64>();
        let metric = PER_LAYER.iter().find(|(n, _)| n.strip_suffix(".ms") == Some(span));
        o.set(metric.expect("every zoo tuner has a baselines metric").0, median(&ms));
    }
    eval_layer(&mut o, &stats, journals.len(), session_ms);
    journal_layers(&mut o, &journals, work)?;
    o.set("trace.overhead_ratio", median(&traced_ms) / median(&plain_ms));
    Ok(Traced { outcome: o, logs: vec![("client", log)], notes: Vec::new() })
}

/// `serve-campaign`: the served workload with client-side spans on
/// alternate blocks of tunes and on the campaign phases, then the
/// transfer layer timed in process on the same knowledge base.
fn trace_serve(args: &Args, work: &Path) -> Result<Traced, String> {
    let epoch = Instant::now();
    let (mut log_b, mut log_a) = (SpanLog::new(epoch), SpanLog::new(epoch));
    let run = serve_campaign(args, work, Some((&mut log_b, &mut log_a)))?;
    let mut o = zeroed();
    o.attempted = run.measured.attempted;
    o.failed = run.measured.failed;
    for (metric, span) in [
        ("serve.admit_ms", "serve.admit"),
        ("serve.queue_ms", "serve.queue"),
        ("serve.stream_ms", "serve.stream"),
        ("serve.status_ms", "serve.status"),
        ("serve.metrics_ms", "serve.metrics"),
    ] {
        o.set(metric, median(&log_b.total_ms_of(span)));
    }
    let n = run.served.len();
    o.set(
        "serve.frames_per_session",
        mean(run.served.iter().map(|(_, s)| s.frames.len() as u64).sum(), n),
    );
    o.set("serve.bytes_per_session", mean(run.served.iter().map(|(_, s)| s.bytes as u64).sum(), n));
    o.set("serve.busy", run.busy as f64);
    let (traced, plain): (Vec<_>, Vec<_>) = run.served.iter().partition(|(i, _)| traced_block(*i));
    let p50 = |v: &[&(usize, wallbench::serve::Served)]| {
        median(&v.iter().map(|(_, s)| s.total_ms()).collect::<Vec<_>>())
    };
    o.set("trace.overhead_ratio", p50(&traced) / p50(&plain));

    let c = &run.campaign;
    o.set("campaign.run.ms", c.phase_ms[0]);
    o.set("campaign.cells", c.cells as f64);
    o.set("campaign.resume.ms", c.phase_ms[1]);
    o.set("campaign.report.ms", c.phase_ms[2]);
    o.set("campaign.gate.ms", c.phase_ms[3]);

    o.set("transfer.kb.records", run.kb.0 as f64);
    o.set("transfer.kb.bytes", run.kb.1 as f64);
    let mut load_ms = Vec::new();
    let mut kb = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        kb = cst_transfer::KnowledgeBase::load(&run.kb_dir)?;
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let kb = kb.ok_or("the mined knowledge base is missing")?;
    o.set("transfer.kb_load.ms", median(&load_ms));
    let mut seeds_ms = Vec::new();
    for req in run.tunes.iter().filter(|r| r.warm.is_some()).take(20) {
        let t0 = Instant::now();
        std::hint::black_box(cst_transfer::warm_seeds(
            &kb,
            &req.stencil,
            &req.arch,
            cst_transfer::DEFAULT_TOP_K,
            req.seed,
        ));
        seeds_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    o.set("transfer.warm_seeds.ms", median(&seeds_ms));

    let journals: Vec<Vec<String>> = run.served.iter().map(|(_, s)| s.journal()).collect();
    journal_layers(&mut o, &journals, work)?;
    let notes = run.measured.notes;
    Ok(Traced { outcome: o, logs: vec![("client-b", log_b), ("client-a", log_a)], notes })
}

fn run() -> Result<i32, String> {
    let args = start(true)?;
    let spin_before = spin_ms();
    let work = WorkDir::create("trace");
    let mut traced = match args.workload.as_str() {
        "cstuner-pipeline" => trace_pipeline(&args, work.path())?,
        "zoo-search" => trace_zoo(&args, work.path())?,
        "serve-campaign" => trace_serve(&args, work.path())?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let spin_after = spin_ms();
    traced.outcome.set("host.spin_ms", (spin_before + spin_after) / 2.0);
    let path = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".wallbench")
        .join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
    let logs: Vec<(&str, &SpanLog)> = traced.logs.iter().map(|(t, l)| (*t, l)).collect();
    write_spans(&path, &logs)?;
    traced.notes.push(format!("\"spans_file\": \"{}\"", path.display()));
    Ok(finish(&args, [spin_before, spin_after], &traced.notes, &traced.outcome, &PER_LAYER))
}

fn main() {
    let code = run().unwrap_or_else(|e| {
        eprintln!("wallbench-trace: {e}");
        2
    });
    std::process::exit(code);
}
