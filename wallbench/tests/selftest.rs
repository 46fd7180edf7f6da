//! Self-tests of the benchmark: its inputs, statistics, metric table,
//! output checks and traced stage replay.

// The traced binary's modules, compiled here for the replay test; the
// test uses only part of them.
#[allow(dead_code)]
#[path = "../src/bin/wallbench-trace/eval.rs"]
mod eval;
#[allow(dead_code)]
#[path = "../src/bin/wallbench-trace/replay.rs"]
mod replay;

use cst_serve::{FaultSpec, TuneRequest};
use std::time::Instant;
use wallbench::checks::Checker;
use wallbench::inputs::{
    campaign_spec_json, paper_jobs, paper_pairs, render_jobs, render_served, served_tunes,
    PIPELINE_SEEDS_PER_PAIR,
};
use wallbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use wallbench::stats::{p90, percentile, samples_beyond, TAIL_SAMPLES};
use wallbench::trace::SpanLog;
use wallbench::workload::timed_session;

#[test]
fn request_lists_are_byte_deterministic_per_seed_and_differ_across_seeds() {
    let jobs =
        |seed| render_jobs(&paper_jobs(seed, &paper_pairs(), PIPELINE_SEEDS_PER_PAIR, 15, 20.0));
    let served = |seed| render_served(&served_tunes(seed, 300));
    let spec = |seed| campaign_spec_json("bench", seed, 20);
    for seed in [0, 1, 42, u64::MAX] {
        assert_eq!(jobs(seed), jobs(seed));
        assert_eq!(served(seed), served(seed));
        assert_eq!(spec(seed), spec(seed));
        assert_ne!(jobs(seed), jobs(seed ^ 1));
        assert_ne!(served(seed), served(seed ^ 1));
        assert_ne!(spec(seed), spec(seed ^ 1));
    }
    assert_eq!(jobs(5).lines().count() % (16 * PIPELINE_SEEDS_PER_PAIR), 0);
}

#[test]
fn the_percentile_rule_keeps_ten_samples_beyond_p90() {
    for n in 100..=2000 {
        assert!(samples_beyond(n, 90.0) >= TAIL_SAMPLES, "n = {n}");
        let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
        let v = p90(&samples);
        assert!(samples.iter().filter(|&&x| x > v).count() >= TAIL_SAMPLES, "n = {n}");
    }
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
}

#[test]
#[should_panic(expected = "fewer than 10 samples beyond")]
fn p90_refuses_too_few_samples() {
    p90(&vec![1.0; 99]);
}

#[test]
fn metric_names_are_well_formed_unique_and_match_benchmark_json() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
    for n in &names {
        assert!(valid_name(n), "bad metric name `{n}`");
    }
    assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names are unique");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside this directory");
    let doc = cst_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
}

#[test]
fn traced_stage_replay_equals_run_session() {
    let req = TuneRequest::build(
        Some("j3d7pt"),
        Some("a100"),
        Some("cstuner"),
        Some(3),
        Some(30.0),
        false,
        Some(FaultSpec::Off),
    )
    .unwrap();
    let direct = timed_session(&req).unwrap();
    let mut log = SpanLog::new(Instant::now());
    let (replayed, stats, counts) = replay::replay_cstuner(&req, &mut log, 0).unwrap();
    assert_eq!(replay::Result3::of(&direct.out.outcome), replayed);
    assert!(stats.calls(0) > 0 && counts.records > 0 && counts.kernels > 0);
    let stages = ["core.dataset", "core.grouping", "core.sampling", "codegen", "core.search"];
    for stage in stages {
        assert_eq!(log.self_ms_of(stage).len(), 1, "one `{stage}` span");
    }
    let session = log.total_ms_of("core.session")[0];
    let children: f64 = stages.iter().map(|s| log.total_ms_of(s)[0]).sum();
    assert!(children <= session && log.self_ms_of("core.session")[0] >= 0.0);
}

#[test]
fn best_setting_check_follows_the_tuners_validity_promise() {
    let req = |tuner| {
        TuneRequest::build(
            Some("j3d7pt"),
            Some("a100"),
            Some(tuner),
            Some(3),
            None,
            false,
            Some(FaultSpec::Off),
        )
        .unwrap()
    };
    let mut checker = Checker::default();
    // Grid does not promise valid asks; its full-budget sweep ends on a
    // launchable best with a thread block smaller than a warp.
    let grid = timed_session(&req("grid")).unwrap();
    assert_eq!(checker.session(&grid.req, &grid.out, &grid.journal), Ok(()));
    // Random search asks only valid settings, so the same best fails there.
    let random = timed_session(&req("random")).unwrap();
    assert_eq!(checker.session(&random.req, &random.out, &random.journal), Ok(()));
    let mut forged = random.out.clone();
    forged.outcome.best_setting = grid.out.outcome.best_setting;
    let err = checker.session(&random.req, &forged, &random.journal).unwrap_err();
    assert!(err.contains("is not valid"), "{err}");
}
