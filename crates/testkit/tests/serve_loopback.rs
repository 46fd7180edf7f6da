//! End-to-end tuning-as-a-service tests over real loopback TCP.
//!
//! Pins the tentpole guarantees of `cst-serve`: a served session streams
//! exactly the journal a plain `cstuner tune --journal` run writes (bit
//! identical modulo wall-clock fields), identical concurrent requests
//! produce identical streams, admission control rejects overload with a
//! typed `busy` frame, and shutdown drains cleanly.

use cst_serve::{proto, run_session, DoneInfo, FaultSpec, TuneRequest};
use cst_telemetry::json::{self, Value};
use cst_telemetry::{schema, strip_wall_fields, Telemetry};
use cst_testkit::{check_golden, hex_bits, split_stream, LoopbackServer};

fn quick_req(seed: u64) -> TuneRequest {
    // Fault knob pinned off so both CI legs (default and CST_FAULT_SEED=7)
    // see the same stream; j3d7pt at a small budget keeps this fast.
    TuneRequest::build(
        Some("j3d7pt"),
        None,
        None,
        Some(seed),
        Some(8.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap()
}

fn strip(lines: &[String]) -> Vec<String> {
    lines.iter().map(|l| strip_wall_fields(l)).collect()
}

fn frame_of_type<'a>(frames: &'a [String], ty: &str) -> &'a String {
    frames
        .iter()
        .find(|f| proto::frame_type(f).as_deref() == Some(ty))
        .unwrap_or_else(|| panic!("no `{ty}` frame in {frames:#?}"))
}

#[test]
fn served_session_matches_direct_cli_run() {
    let server = LoopbackServer::start(2, 4);
    let req = quick_req(1);
    let frames = server.tune(&req);

    // Control envelope: admission ack first, terminal summary last.
    assert!(frames[0].contains("\"type\":\"accepted\""), "{}", frames[0]);
    let done_frame = frames.last().unwrap();
    assert!(done_frame.contains("\"type\":\"session_done\""), "{done_frame}");
    assert!(done_frame.contains("\"state\":\"done\""), "{done_frame}");

    // The streamed journal is schema-valid, exactly as --journal writes it.
    let (journal, _control) = split_stream(&frames);
    schema::validate_journal(&journal).expect("streamed journal validates");

    // Byte-identical to the same request run in-process (the CLI path),
    // modulo wall-clock fields.
    let tel = Telemetry::in_memory();
    let direct = run_session(&req, &tel, None).expect("direct run succeeds");
    let direct_lines = tel.lines().unwrap();
    assert_eq!(strip(&journal), strip(&direct_lines), "served stream != direct CLI stream");

    // The session_done summary carries the direct run's outcome, bit for bit.
    let v = json::parse(done_frame).unwrap();
    let info = DoneInfo::new(&direct);
    let f64_bits = |key: &str| v.get(key).and_then(Value::as_f64).map(hex_bits);
    assert_eq!(f64_bits("best_ms"), Some(hex_bits(info.best_ms)));
    assert_eq!(f64_bits("baseline_ms"), Some(hex_bits(info.baseline_ms)));
    assert_eq!(f64_bits("search_s"), Some(hex_bits(info.search_s)));
    assert_eq!(v.get("evaluations").and_then(Value::as_u64), Some(info.evaluations));
    assert_eq!(v.get("setting").and_then(Value::as_str), Some(info.setting.as_str()));

    // Golden fixture: the full wire journal, wall fields stripped.
    check_golden("serve_stream", &(strip(&journal).join("\n") + "\n"));

    // status and watch replay agree after the fact.
    let status = server.raw(&proto::session_request_line("status", 0));
    assert!(status[0].contains("\"state\":\"done\""), "{}", status[0]);
    let replay = server.raw(&proto::session_request_line("watch", 0));
    let (replay_journal, _) = split_stream(&replay);
    assert_eq!(strip(&replay_journal), strip(&journal), "watch replay drifted");

    let bye = server.shutdown();
    assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
    assert!(bye[0].contains("\"sessions_completed\":1"), "{}", bye[0]);
}

#[test]
fn concurrent_identical_requests_stream_identically() {
    let server = LoopbackServer::start(2, 4);
    let req = quick_req(5);
    let (a, b) = std::thread::scope(|s| {
        let ta = s.spawn(|| server.tune(&req));
        let tb = s.spawn(|| server.tune(&req));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    let (ja, ca) = split_stream(&a);
    let (jb, cb) = split_stream(&b);
    assert_eq!(strip(&ja), strip(&jb), "concurrent identical requests diverged");
    // Terminal summaries are identical except for the session id.
    let da = frame_of_type(&ca, "session_done")
        .replace("\"session\":0", "\"session\":N")
        .replace("\"session\":1", "\"session\":N");
    let db = frame_of_type(&cb, "session_done")
        .replace("\"session\":0", "\"session\":N")
        .replace("\"session\":1", "\"session\":N");
    assert_eq!(da, db);
    server.shutdown();
}

#[test]
fn hostile_nesting_gets_an_error_frame_and_the_daemon_keeps_serving() {
    // A request line of 200,000 `[` once overflowed the connection
    // thread's stack and aborted the daemon. It must get a one-frame
    // `error` reply instead, and the next request must be served.
    let server = LoopbackServer::start(2, 4);
    let reply = server.raw(&"[".repeat(200_000));
    assert_eq!(reply.len(), 1, "an error is the whole reply: {reply:#?}");
    assert_eq!(proto::frame_type(&reply[0]).as_deref(), Some("error"), "{}", reply[0]);
    assert!(reply[0].contains("nesting deeper than"), "{}", reply[0]);

    let frames = server.tune(&quick_req(3));
    assert!(frames.last().unwrap().contains("\"state\":\"done\""), "{frames:#?}");
    server.shutdown();
}

#[test]
fn kernel_tuner_request_streams_and_gates_cleanly() {
    // A request naming a kernel-native tuner (forest) must stream like
    // any other: schema-valid journal, byte-identical to the in-process
    // session path, pinned as a wire fixture, and clean through the
    // observatory gate.
    let server = LoopbackServer::start(2, 4);
    let req = TuneRequest::build(
        Some("j3d7pt"),
        None,
        Some("forest"),
        Some(2),
        Some(8.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap();
    let frames = server.tune(&req);
    assert!(frames[0].contains("\"type\":\"accepted\""), "{}", frames[0]);
    let done = frames.last().unwrap();
    assert!(done.contains("\"type\":\"session_done\""), "{done}");
    assert!(done.contains("\"state\":\"done\""), "{done}");

    let (journal, _control) = split_stream(&frames);
    schema::validate_journal(&journal).expect("streamed kernel-tuner journal validates");

    let tel = Telemetry::in_memory();
    run_session(&req, &tel, None).expect("direct run succeeds");
    assert_eq!(strip(&journal), strip(&tel.lines().unwrap()), "served != direct");

    check_golden("serve_stream_forest", &(strip(&journal).join("\n") + "\n"));

    // Gates cleanly: the stream summarizes under cst-obs and a run
    // self-gated against its own summary reports zero drift.
    let summary = cst_obs::summarize("serve_stream_forest", &journal).expect("summarize");
    let diff = cst_obs::diff_runs(&summary, &summary);
    let gate = cst_obs::evaluate_gate(&diff, &cst_obs::DriftPolicy::default());
    assert_eq!(gate.exit_code(), 0, "kernel-tuner journal must self-gate clean");

    server.shutdown();
}

#[test]
fn metrics_frame_is_deterministic_and_validates() {
    let server = LoopbackServer::start(2, 4);
    let req = TuneRequest::build(
        Some("rhs4center"),
        Some("v100"),
        None,
        Some(4),
        Some(6.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap();
    let frames = server.tune(&req);
    assert!(frames.last().unwrap().contains("\"state\":\"done\""));

    let reply = server.raw(&proto::metrics_request_line());
    assert_eq!(reply.len(), 1, "metrics is a one-frame reply: {reply:#?}");
    let frame = &reply[0];
    proto::validate_metrics_frame(frame).expect("well-formed metrics frame");
    // Metrics frames are control frames, never journal records.
    assert!(proto::is_protocol_frame(frame), "{frame}");

    // The deterministic core: wall fields stripped, byte-stable, pinned.
    let core = strip_wall_fields(frame);
    assert!(!core.contains("wall"), "wall state leaked into the core: {core}");
    check_golden("serve_metrics", &(core.clone() + "\n"));

    // A second poll moves exactly its own request counter.
    let again = server.raw(&proto::metrics_request_line());
    let core2 = strip_wall_fields(&again[0]);
    assert_eq!(core2, core.replace("\"requests_metrics\":1", "\"requests_metrics\":2"));

    // The sessionless status summary agrees with the session counts.
    let status = server.raw(&proto::status_summary_request_line());
    assert!(status[0].contains("\"done\":1"), "{}", status[0]);
    assert!(status[0].contains("\"stencil\":\"rhs4center\""), "{}", status[0]);
    server.shutdown();
}

#[test]
fn metrics_requests_do_not_perturb_tuning() {
    // Identical requests on two daemons — one polled with metrics and
    // status requests throughout its run, one left alone — must stream
    // byte-identical journals: observability is strictly read-only.
    let req = quick_req(9);
    let quiet = LoopbackServer::start(2, 4);
    let quiet_frames = quiet.tune(&req);
    quiet.shutdown();

    let polled = LoopbackServer::start(2, 4);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let frames = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut polls = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let reply = polled.raw(&proto::metrics_request_line());
                proto::validate_metrics_frame(&reply[0]).expect("mid-run metrics frame");
                polled.raw(&proto::status_summary_request_line());
                polls += 1;
            }
            polls
        });
        let frames = polled.tune(&req);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let polls = poller.join().unwrap();
        assert!(polls >= 1, "poller must observe the run");
        frames
    });
    polled.shutdown();

    let (ja, _) = split_stream(&quiet_frames);
    let (jb, _) = split_stream(&frames);
    assert_eq!(strip(&ja), strip(&jb), "metrics polling perturbed the tuned stream");
}

#[test]
fn overload_gets_a_clean_busy_rejection() {
    // Paused workers: both admitted sessions stay queued, so the third
    // request sees a deterministic load snapshot worth pinning.
    let server = LoopbackServer::start_paused(1, 1);
    let mut first = server.connect();
    first.send_line(&proto::tune_request_line(&quick_req(0))).unwrap();
    assert!(first.next_frame().unwrap().unwrap().contains("\"type\":\"accepted\""));
    let mut second = server.connect();
    second.send_line(&proto::tune_request_line(&quick_req(0))).unwrap();
    assert!(second.next_frame().unwrap().unwrap().contains("\"type\":\"accepted\""));

    let third = server.tune(&quick_req(0));
    assert_eq!(third.len(), 1, "busy is the whole reply: {third:#?}");
    check_golden("serve_busy", &(third[0].clone() + "\n"));

    // Cancelling the queued sessions unblocks their watchers and the drain.
    for id in [0u64, 1] {
        let reply = server.raw(&proto::session_request_line("cancel", id));
        assert!(reply[0].contains("\"state\":\"cancelled\""), "{}", reply[0]);
    }
    let done = first.next_frame().unwrap().unwrap();
    assert!(done.contains("\"type\":\"session_done\"") && done.contains("cancelled"), "{done}");
    assert_eq!(first.next_frame().unwrap(), None, "stream closes after terminal frame");
    let done = second.next_frame().unwrap().unwrap();
    assert!(done.contains("cancelled"), "{done}");

    let bye = server.shutdown();
    assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
}
