//! `cstuner` — command-line front end.
//!
//! ```text
//! cstuner list                                   # available stencils & GPUs
//! cstuner version                                # crate + journal schema versions
//! cstuner tune  --stencil cheby [--arch a100] [--budget 100] [--seed 0]
//!               [--tuner cstuner|garvey|opentuner|artemis|random|grid|anneal|forest]
//!               [--quick] [--journal run.jsonl] [--fault-off] [--warm STORE]
//! cstuner codegen --stencil cheby [--arch a100] [--budget 60] [--out k.cu]
//! cstuner report run.jsonl [--json]              # render a run journal
//! cstuner journal-check run.jsonl                # schema-validate a journal
//! cstuner metrics-check metrics.json             # validate a metrics frame
//! cstuner obs ingest J.jsonl... [--store DIR] [--name N]   # archive runs
//! cstuner obs diff BASE CAND                     # compare two runs
//! cstuner obs gate BASE CAND [--save FILE]       # drift gate (exit 1 on regress)
//! cstuner obs dashboard [--store DIR] [--json]   # whole-archive table
//! cstuner obs profile RUN [--json|--fold]        # span-profile a journal
//! cstuner obs profile BASE CAND --diff           # compare two span profiles
//! cstuner kb build [--store DIR]                 # mine kb.json from an archive
//! cstuner kb stat  [--store DIR]                 # knowledge-base inventory
//! cstuner kb rank  --stencil S [--arch A] [--store DIR] [--top K] [--seed N]
//! cstuner kb gate  COLD WARM [--pct 5]           # warm must reach the milestone
//!                                                # in <= the cold run's evals
//! cstuner campaign run <spec.json> [--store DIR] [--addr HOST:PORT] [--fresh] [--json]
//! cstuner campaign status <spec.json> [--store DIR]
//! cstuner campaign report <spec.json> [--store DIR] [--json] [--save FILE]
//! cstuner campaign gate <spec.json> --baseline DIR [--store DIR] [--save FILE]
//! cstuner serve [--addr HOST:PORT] [--workers N] [--queue N] [--archive DIR]
//! cstuner client tune   [--addr HOST:PORT] [tune flags]     # tune via a daemon
//! cstuner client status [--session N] [--addr HOST:PORT]    # one session, or all
//! cstuner client watch  --session N [--addr HOST:PORT] [--journal FILE]
//! cstuner client cancel --session N [--addr HOST:PORT]
//! cstuner client metrics [--addr HOST:PORT] [--json] [--watch] [--interval S] [--count N]
//! cstuner client shutdown [--addr HOST:PORT]     # drain and stop the daemon
//! cstuner top [--addr HOST:PORT] [--interval S] [--count N]  # live daemon dashboard
//! ```
//!
//! Every `--addr` above falls back to the `CST_ADDR` env var (the flag
//! wins), then to the serve default.
//!
//! `tune` runs one iso-time tuning session and prints the outcome;
//! `codegen` additionally emits the winning CUDA kernel. `--journal`
//! (or the `CST_JOURNAL` env var) writes a JSONL run journal; `report`
//! and `journal-check` consume one. The `obs` family is the cross-run
//! observatory: `ingest` archives journals as versioned summaries under a
//! store directory (`results/obs` by default), `diff`/`gate`/`dashboard`
//! compare them (each run argument may be a `*.summary.json` or a raw
//! journal). The `campaign` family expands a declarative spec (stencil ×
//! arch × tuner × budget × seed matrix) into cells, runs them — locally
//! in parallel or via a daemon — into a campaign-scoped archive with
//! resume-on-rerun, and reports/gates the aggregate.
//! `serve` starts the tuning-as-a-service daemon and `client`
//! talks to one: a served `client tune` streams the exact journal a
//! local `tune --journal` would write. Invoking `cstuner --quick ...`
//! with no subcommand is shorthand for `cstuner tune --quick ...`.

use cstuner::baselines::zoo::edit_distance;
use cstuner::campaign;
use cstuner::obs::{self, DriftPolicy, JournalStore};
use cstuner::prelude::*;
use cstuner::serve::{proto, Connection, ServeConfig, Server};
use cstuner::serve::{DoneInfo, FaultSpec, SessionOutcome, TuneRequest};
use cstuner::sim::FaultStats;
use cstuner::stencil::{suite, suite_ext};
use cstuner::telemetry::json::{self, Value};
use cstuner::telemetry::{report, schema};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{IsTerminal, Write as _};
use std::path::Path;

/// Split an argument list into `--key [value]` flags and positionals.
fn parse_args(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            // A flag followed by another flag (or nothing) is boolean:
            // `--quick --journal run.jsonl` must not eat `--journal`.
            match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => {
                    flags.insert(key.to_string(), next.clone());
                    i += 2;
                }
                _ => {
                    flags.insert(key.to_string(), String::new());
                    i += 1;
                }
            }
        } else {
            positionals.push(args[i].clone());
            i += 1;
        }
    }
    (flags, positionals)
}

/// Reject flags outside `allowed` with exit 2 and, when a flag is a
/// near-miss (edit distance <= 2), a `did you mean` hint.
fn check_flags(context: &str, flags: &HashMap<String, String>, allowed: &[&str]) {
    let mut keys: Vec<&String> = flags.keys().collect();
    keys.sort();
    for key in keys {
        if allowed.contains(&key.as_str()) {
            continue;
        }
        eprintln!("unknown flag `--{key}` for `cstuner {context}`");
        let hint =
            allowed.iter().map(|a| (edit_distance(key, a), *a)).filter(|(d, _)| *d <= 2).min();
        match hint {
            Some((_, near)) => eprintln!("did you mean `--{near}`?"),
            None if allowed.is_empty() => eprintln!("`cstuner {context}` takes no flags"),
            None => {
                let list: Vec<String> = allowed.iter().map(|a| format!("--{a}")).collect();
                eprintln!("supported: {}", list.join(", "));
            }
        }
        std::process::exit(2);
    }
}

/// Flags shared by `tune`, `codegen` and `client tune`.
const TUNE_FLAGS: [&str; 9] =
    ["stencil", "arch", "budget", "seed", "tuner", "quick", "journal", "fault-off", "warm"];

fn flag_u64(flags: &HashMap<String, String>, key: &str) -> Option<u64> {
    flags.get(key).map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects a non-negative integer, got `{raw}`");
            std::process::exit(2);
        })
    })
}

fn flag_f64(flags: &HashMap<String, String>, key: &str) -> Option<f64> {
    flags.get(key).map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects a number, got `{raw}`");
            std::process::exit(2);
        })
    })
}

/// Warm-start store from `--warm DIR` or the `CST_WARM` env var; the
/// flag wins. `None` is the cold path.
fn warm_override(flags: &HashMap<String, String>) -> Option<String> {
    flags
        .get("warm")
        .filter(|d| !d.is_empty())
        .cloned()
        .or_else(|| std::env::var("CST_WARM").ok().filter(|d| !d.is_empty()))
}

/// Validate tune-family flags into a [`TuneRequest`] (exit 2 on error).
fn tune_request_from_flags(flags: &HashMap<String, String>) -> TuneRequest {
    let fault = flags.contains_key("fault-off").then_some(FaultSpec::Off);
    let mut req = TuneRequest::build(
        flags.get("stencil").map(String::as_str),
        flags.get("arch").map(String::as_str),
        flags.get("tuner").map(String::as_str),
        flag_u64(flags, "seed"),
        flag_f64(flags, "budget"),
        flags.contains_key("quick"),
        fault,
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    req.warm = warm_override(flags);
    req
}

fn cmd_list() {
    println!("Stencils (paper suite):");
    for k in suite::all_kernels() {
        println!(
            "  {:11} {}³-ish grid {:?}, order {}, {} flops/pt, {} arrays",
            k.spec.name, k.spec.grid[0], k.spec.grid, k.spec.order, k.spec.flops, k.spec.io_arrays
        );
    }
    println!("Stencils (extensions):");
    for k in suite_ext::extension_kernels() {
        println!(
            "  {:11} grid {:?}, order {}, {} flops/pt, {} arrays",
            k.spec.name, k.spec.grid, k.spec.order, k.spec.flops, k.spec.io_arrays
        );
    }
    println!("GPUs: a100, v100, small");
    println!("Tuners:");
    for t in cstuner::baselines::zoo::tuners() {
        let default = if t.flag == "cstuner" { " (default)" } else { "" };
        println!("  {:9} {}{default}", t.flag, t.summary);
    }
    println!("Warm-start: {}", warm_provider_line());
}

/// One-line warm-start provider report shared by `list` and `version`:
/// the KB schema this build speaks and whether `CST_WARM` names a store
/// with a built index.
fn warm_provider_line() -> String {
    let version = cstuner::transfer::KB_VERSION;
    match std::env::var("CST_WARM").ok().filter(|d| !d.is_empty()) {
        Some(dir) => {
            let state = if cstuner::transfer::KnowledgeBase::path_in(Path::new(&dir)).exists() {
                "kb.json present"
            } else {
                "kb.json missing — run `cstuner kb build`"
            };
            format!("kb schema v{version}, provider CST_WARM={dir} ({state})")
        }
        None => format!("kb schema v{version}, no provider configured (--warm DIR or CST_WARM)"),
    }
}

/// Journal sink from `--journal PATH` or the `CST_JOURNAL` env var; the
/// flag wins. Absent both, the returned handle is the zero-cost noop.
fn journal_telemetry(flags: &HashMap<String, String>) -> Telemetry {
    let path = flags
        .get("journal")
        .filter(|p| !p.is_empty())
        .cloned()
        .or_else(|| std::env::var("CST_JOURNAL").ok().filter(|p| !p.is_empty()));
    match path {
        Some(p) => Telemetry::to_file(std::path::Path::new(&p)).unwrap_or_else(|e| {
            eprintln!("cannot open journal `{p}`: {e}");
            std::process::exit(2);
        }),
        None => Telemetry::noop(),
    }
}

/// Human-readable outcome block, identical for local and served runs.
fn print_outcome(d: &DoneInfo) {
    println!("tuner:      {}", d.tuner);
    println!(
        "best:       {:.4} ms  ({:.2}x over untuned baseline {:.4} ms)",
        d.best_ms,
        d.baseline_ms / d.best_ms,
        d.baseline_ms
    );
    println!("setting:    {}", d.setting);
    println!("evals:      {}", d.evaluations);
    println!("search:     {:.1} s virtual", d.search_s);
    // Only a hostile testbed (CST_FAULT_SEED) produces nonzero counters;
    // keeping the line conditional preserves byte-identical fault-free
    // output.
    if d.faults.any() {
        let f = &d.faults;
        println!(
            "faults:     {} compile, {} launch, {} timeout, {} outliers; {} retries, {} quarantined",
            f.compile_errors, f.launch_failures, f.timeouts, f.outliers, f.retries, f.quarantined
        );
    }
}

fn run_tune(flags: &HashMap<String, String>) -> (StencilKernel, SessionOutcome) {
    let req = tune_request_from_flags(flags);
    let kernel = cstuner::serve::find_stencil(&req.stencil).expect("request validated");
    let arch = GpuArch::by_name(&req.arch).expect("request validated");
    let tuner_display =
        cstuner::serve::build_tuner(&req.tuner, req.quick).expect("request validated").name();
    let tel = journal_telemetry(flags);
    eprintln!(
        "Tuning {} on simulated {} with {} ({}s budget, seed {})...",
        kernel.spec.name, arch.name, tuner_display, req.budget_s, req.seed
    );
    let session = cstuner::serve::run_session(&req, &tel, None).unwrap_or_else(|e| {
        eprintln!("tuning failed: {e}");
        std::process::exit(1);
    });
    if let Some(w) = &session.warm {
        eprintln!(
            "warm-start: {} seeds from {} ({} mode, {} training rows)",
            w.seeds, w.store, w.mode, w.n_train
        );
    }
    print_outcome(&DoneInfo::new(&session));
    (kernel, session)
}

fn read_journal_lines(args: &[String]) -> Vec<String> {
    let path = args.iter().find(|a| !a.starts_with("--")).unwrap_or_else(|| {
        eprintln!("usage: cstuner <report|journal-check> <journal.jsonl>");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    text.lines().map(str::to_string).collect()
}

fn obs_usage() -> ! {
    eprintln!(
        "usage: cstuner obs <command>\n  \
         obs ingest <journal.jsonl>... [--store DIR] [--name NAME]   archive runs as summaries\n  \
         obs diff <baseline> <candidate>                             compare two runs\n  \
         obs gate <baseline> <candidate> [--save FILE]               drift gate (exit 1 on regress)\n  \
         obs dashboard [--store DIR] [--save FILE] [--json]          whole-archive table\n  \
         obs profile <run> [--json|--fold]                           span-profile a run\n  \
         obs profile <baseline> <candidate> --diff                   compare two profiles\n\
         run arguments accept a *.summary.json or a raw JSONL journal; \
         the store defaults to results/obs"
    );
    std::process::exit(2);
}

fn obs_load(path: &str) -> obs::RunSummary {
    obs::load_run(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot load run `{path}`: {e}");
        std::process::exit(2);
    })
}

/// Load a run argument as a span profile: a raw journal folds its span
/// tree; a `*.summary.json` falls back to the flat per-stage profile.
fn obs_profile_load(path: &str) -> obs::Profile {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    let source = Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or(path).to_string();
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    if first.contains("\"summary_version\"") {
        match obs::RunSummary::from_json(first) {
            Ok(s) => obs::profile_summary(&source, &s),
            Err(e) => {
                eprintln!("cannot load summary `{path}`: {e}");
                std::process::exit(2);
            }
        }
    } else {
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        obs::profile_journal(&source, &lines).unwrap_or_else(|e| {
            eprintln!("cannot profile `{path}`: {e}");
            std::process::exit(1);
        })
    }
}

/// The `cstuner obs` family: journal archive, run diff, drift gate and
/// archive dashboard.
fn cmd_obs(args: &[String]) {
    let sub = args.first().map(String::as_str).unwrap_or("");
    let (flags, positionals) = parse_args(&args[1.min(args.len())..]);
    let store_dir = flags.get("store").cloned().unwrap_or_else(|| "results/obs".to_string());
    match sub {
        "ingest" => {
            check_flags("obs ingest", &flags, &["store", "name"]);
            if positionals.is_empty() {
                obs_usage();
            }
            if flags.contains_key("name") && positionals.len() > 1 {
                eprintln!("--name only applies to a single journal");
                std::process::exit(2);
            }
            let store = JournalStore::open(Path::new(&store_dir)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            for journal in &positionals {
                let name = flags.get("name").map(String::as_str);
                match store.ingest_file(Path::new(journal), name) {
                    Ok(s) => println!(
                        "ingested {} -> {} (best {:.4} ms, {} evals)",
                        journal,
                        store.path_of(&s.source).display(),
                        s.best_ms,
                        s.evaluations
                    ),
                    Err(e) => {
                        eprintln!("cannot ingest `{journal}`: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "diff" => {
            check_flags("obs diff", &flags, &[]);
            let [base, cand] = positionals.as_slice() else { obs_usage() };
            let diff = obs::diff_runs(&obs_load(base), &obs_load(cand));
            print!("{}", obs::render_diff(&diff));
        }
        "gate" => {
            check_flags("obs gate", &flags, &["save"]);
            let [base, cand] = positionals.as_slice() else { obs_usage() };
            let diff = obs::diff_runs(&obs_load(base), &obs_load(cand));
            let policy = DriftPolicy::default();
            let gate = obs::evaluate_gate(&diff, &policy);
            let dashboard = obs::render_gate_dashboard(&gate, &policy);
            print!("{dashboard}");
            println!("{}", obs::verdict_json(&gate));
            if let Some(path) = flags.get("save").filter(|p| !p.is_empty()) {
                let saved = format!("{dashboard}{}\n", obs::verdict_json(&gate));
                std::fs::write(path, saved).unwrap_or_else(|e| {
                    eprintln!("cannot write `{path}`: {e}");
                    std::process::exit(2);
                });
            }
            std::process::exit(gate.exit_code());
        }
        "profile" => {
            check_flags("obs profile", &flags, &["json", "fold", "diff"]);
            if flags.contains_key("diff") {
                let [base, cand] = positionals.as_slice() else { obs_usage() };
                let (b, c) = (obs_profile_load(base), obs_profile_load(cand));
                let metrics = obs::diff_profiles(&b, &c);
                print!("{}", obs::render_profile_diff(&b, &c, &metrics));
            } else {
                let [run] = positionals.as_slice() else { obs_usage() };
                let p = obs_profile_load(run);
                if flags.contains_key("json") {
                    println!("{}", obs::profile_json(&p));
                } else if flags.contains_key("fold") {
                    print!("{}", obs::render_fold(&p));
                } else {
                    print!("{}", obs::render_profile(&p));
                }
            }
        }
        "dashboard" => {
            check_flags("obs dashboard", &flags, &["store", "save", "json"]);
            let store = JournalStore::open(Path::new(&store_dir)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            let summaries = store.load_all().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            let text = if flags.contains_key("json") {
                obs::dashboard_json(&summaries) + "\n"
            } else {
                obs::render_dashboard(&summaries)
            };
            print!("{text}");
            if let Some(path) = flags.get("save").filter(|p| !p.is_empty()) {
                std::fs::write(path, &text).unwrap_or_else(|e| {
                    eprintln!("cannot write `{path}`: {e}");
                    std::process::exit(2);
                });
            }
        }
        _ => obs_usage(),
    }
}

fn kb_usage() -> ! {
    eprintln!(
        "usage: cstuner kb <command>\n  \
         kb build [--store DIR]                         mine <store>/kb.json from the archive\n  \
         kb stat  [--store DIR]                         knowledge-base inventory\n  \
         kb rank  --stencil S [--arch A] [--store DIR] [--top K] [--seed N]\n      \
           surrogate-ranked warm-start seeds for a target\n  \
         kb gate  <cold-run> <warm-run> [--pct 5]\n      \
           exit 1 unless the warm run reached the milestone in <= the cold run's evals\n\
         the store defaults to results/obs; run arguments accept a *.summary.json or a raw journal"
    );
    std::process::exit(2);
}

/// The `cstuner kb` family: build, inspect and exploit the warm-start
/// knowledge base (see `cst-transfer`).
fn cmd_kb(args: &[String]) {
    use cstuner::transfer::{warm_seeds, KnowledgeBase, DEFAULT_TOP_K, KB_VERSION};
    let sub = args.first().map(String::as_str).unwrap_or("");
    let (flags, positionals) = parse_args(&args[1.min(args.len())..]);
    let store_dir = flags.get("store").cloned().unwrap_or_else(|| "results/obs".to_string());
    let load_kb = || {
        KnowledgeBase::load(Path::new(&store_dir))
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            })
            .unwrap_or_else(|| {
                eprintln!(
                    "no {} in `{store_dir}` — run `cstuner kb build` first",
                    cstuner::transfer::KB_FILE
                );
                std::process::exit(1);
            })
    };
    match sub {
        "build" => {
            check_flags("kb build", &flags, &["store"]);
            let store = JournalStore::open(Path::new(&store_dir)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            let build = KnowledgeBase::build(&store).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            for warning in &build.warnings {
                eprintln!("warning: {warning}");
            }
            build.kb.save(store.dir()).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            println!(
                "kb build: {} records from {} runs -> {} (schema v{KB_VERSION}, {} skipped)",
                build.kb.records.len(),
                store.list().map(|l| l.len()).unwrap_or(0),
                KnowledgeBase::path_in(store.dir()).display(),
                build.warnings.len()
            );
        }
        "stat" => {
            check_flags("kb stat", &flags, &["store"]);
            let kb = load_kb();
            println!(
                "kb stat: schema v{KB_VERSION}, {} records, {} (stencil, arch) pairs",
                kb.records.len(),
                kb.pairs().len()
            );
            for (stencil, arch, n) in kb.pairs() {
                println!("  {stencil:<11} {arch:<6} {n:>6} records");
            }
        }
        "rank" => {
            check_flags("kb rank", &flags, &["store", "stencil", "arch", "top", "seed"]);
            let Some(stencil) = flags.get("stencil").filter(|s| !s.is_empty()) else {
                eprintln!("--stencil is required for `cstuner kb rank`");
                std::process::exit(2);
            };
            let arch = flags.get("arch").map(String::as_str).unwrap_or("A100");
            let top = flag_u64(&flags, "top").map(|t| t as usize).unwrap_or(DEFAULT_TOP_K);
            let seed = flag_u64(&flags, "seed").unwrap_or(0);
            let kb = load_kb();
            let w = warm_seeds(&kb, stencil, arch, top, seed);
            println!(
                "kb rank: {stencil} on {arch} — {} mode, {} training rows, {} candidates",
                w.mode, w.n_train, w.candidates
            );
            for (i, s) in w.seeds.iter().enumerate() {
                println!("  #{:<3} {s}", i + 1);
            }
            if w.seeds.is_empty() {
                println!("  (no recorded settings for this stencil)");
            }
        }
        "gate" => {
            check_flags("kb gate", &flags, &["pct"]);
            let [cold, warm] = positionals.as_slice() else { kb_usage() };
            let pct = flag_u64(&flags, "pct").unwrap_or(5) as u32;
            let (cold_run, warm_run) = (obs_load(cold), obs_load(warm));
            let evals = |run: &obs::RunSummary, label: &str| match run.milestone(pct) {
                Some(m) => {
                    println!(
                        "{label:<5} {:<24} within {pct}% after {} evals (iteration {})",
                        run.source, m.evals, m.iteration
                    );
                    m.evals
                }
                None => {
                    println!("{label:<5} {:<24} never reached within {pct}%", run.source);
                    u64::MAX
                }
            };
            let (c, w) = (evals(&cold_run, "cold"), evals(&warm_run, "warm"));
            if w <= c {
                println!(
                    "kb gate: PASS — warm start reached the {pct}% milestone in <= cold evals"
                );
            } else {
                println!("kb gate: FAIL — warm start needed more evals than cold");
                std::process::exit(1);
            }
        }
        _ => kb_usage(),
    }
}

fn campaign_usage() -> ! {
    eprintln!(
        "usage: cstuner campaign <command> <spec.json>\n  \
         campaign run <spec.json> [--store DIR] [--addr HOST:PORT] [--fresh] [--json]\n      \
           run (or resume) the matrix; --addr fans cells to a cst-serve daemon,\n      \
           --fresh drops this spec's archived cells first\n  \
         campaign status <spec.json> [--store DIR]       archived vs pending cells\n  \
         campaign report <spec.json> [--store DIR] [--json] [--save FILE]\n      \
           comparative dashboard over the archived matrix\n  \
         campaign gate <spec.json> --baseline DIR [--store DIR] [--save FILE]\n      \
           significance-aware verdict vs a baseline campaign store (exit 1 on regress)\n\
         the store defaults to results/campaign/<name>"
    );
    std::process::exit(2);
}

/// Read and validate the spec named by the first positional (exit 2).
fn campaign_spec(positionals: &[String]) -> campaign::CampaignSpec {
    let Some(path) = positionals.first() else { campaign_usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    campaign::CampaignSpec::from_json(&text).unwrap_or_else(|e| {
        eprintln!("invalid campaign spec `{path}`: {e}");
        std::process::exit(2);
    })
}

/// The campaign-scoped archive: `--store DIR` or `results/campaign/<name>`.
fn campaign_store(flags: &HashMap<String, String>, spec: &campaign::CampaignSpec) -> JournalStore {
    let dir = flags
        .get("store")
        .filter(|d| !d.is_empty())
        .cloned()
        .unwrap_or_else(|| format!("results/campaign/{}", spec.name));
    JournalStore::open(Path::new(&dir)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Load the archived matrix for reporting (exit 1 on a broken store).
fn campaign_load(
    spec: &campaign::CampaignSpec,
    store: &JournalStore,
) -> (Vec<(campaign::Cell, obs::RunSummary)>, Vec<campaign::Cell>) {
    campaign::load_cells(spec, store).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// The `cstuner campaign` family: run/resume a declarative matrix,
/// inspect its archive, and gate it against a baseline campaign.
fn cmd_campaign(args: &[String]) {
    let sub = args.first().map(String::as_str).unwrap_or("");
    let (flags, positionals) = parse_args(&args[1.min(args.len())..]);
    match sub {
        "run" => {
            check_flags("campaign run", &flags, &["store", "addr", "fresh", "json"]);
            let spec = campaign_spec(&positionals);
            let store = campaign_store(&flags, &spec);
            if flags.contains_key("fresh") {
                let removed = campaign::forget_cells(&spec, &store).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
                eprintln!("dropped {removed} archived cells");
            }
            let backend = match addr_override(&flags) {
                Some(addr) => campaign::Backend::Daemon(addr),
                None => campaign::Backend::InProcess,
            };
            let opts = campaign::ExecOptions { backend, stop_after: None };
            let run = campaign::run_campaign(&spec, &store, &opts, &mut |i, total, cell, state| {
                let what = match state {
                    campaign::CellState::Cached => "cached",
                    campaign::CellState::Ran => "done",
                };
                eprintln!("  [{i}/{total}] {} {what}", cell.name());
            })
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            println!(
                "campaign {}: {} executed, {} cached ({} cells) -> {}",
                spec.name,
                run.executed,
                run.cached,
                run.cells.len(),
                store.dir().display()
            );
            let (have, missing) = campaign_load(&spec, &store);
            let stats = campaign::aggregate(&have);
            if flags.contains_key("json") {
                println!("{}", campaign::campaign_json(&spec.name, &stats, &missing));
            } else {
                print!("{}", campaign::render_campaign(&spec.name, &stats, &missing));
            }
        }
        "status" => {
            check_flags("campaign status", &flags, &["store"]);
            let spec = campaign_spec(&positionals);
            let store = campaign_store(&flags, &spec);
            let (have, missing) = campaign_load(&spec, &store);
            println!(
                "campaign {}: {}/{} cells archived in {}",
                spec.name,
                have.len(),
                have.len() + missing.len(),
                store.dir().display()
            );
            for cell in &missing {
                println!("  pending {}", cell.name());
            }
        }
        "report" => {
            check_flags("campaign report", &flags, &["store", "json", "save"]);
            let spec = campaign_spec(&positionals);
            let store = campaign_store(&flags, &spec);
            let (have, missing) = campaign_load(&spec, &store);
            let stats = campaign::aggregate(&have);
            let text = if flags.contains_key("json") {
                campaign::campaign_json(&spec.name, &stats, &missing) + "\n"
            } else {
                campaign::render_campaign(&spec.name, &stats, &missing)
            };
            print!("{text}");
            if let Some(path) = flags.get("save").filter(|p| !p.is_empty()) {
                std::fs::write(path, &text).unwrap_or_else(|e| {
                    eprintln!("cannot write `{path}`: {e}");
                    std::process::exit(2);
                });
            }
        }
        "gate" => {
            check_flags("campaign gate", &flags, &["store", "baseline", "save"]);
            let spec = campaign_spec(&positionals);
            let Some(baseline_dir) = flags.get("baseline").filter(|d| !d.is_empty()) else {
                eprintln!("--baseline is required: a campaign store directory to gate against");
                std::process::exit(2);
            };
            let store = campaign_store(&flags, &spec);
            let baseline_store = JournalStore::open(Path::new(baseline_dir)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            let (baseline, _) = campaign_load(&spec, &baseline_store);
            let (candidate, _) = campaign_load(&spec, &store);
            let policy = DriftPolicy::default();
            let gate = campaign::gate_campaign(&baseline, &candidate, &policy);
            let dashboard = campaign::render_campaign_gate(&gate, &policy);
            print!("{dashboard}");
            println!("{}", campaign::campaign_verdict_json(&gate));
            if let Some(path) = flags.get("save").filter(|p| !p.is_empty()) {
                let saved = format!("{dashboard}{}\n", campaign::campaign_verdict_json(&gate));
                std::fs::write(path, saved).unwrap_or_else(|e| {
                    eprintln!("cannot write `{path}`: {e}");
                    std::process::exit(2);
                });
            }
            std::process::exit(gate.exit_code());
        }
        _ => campaign_usage(),
    }
}

/// `cstuner serve`: run the tuning-as-a-service daemon in the
/// foreground until a client sends `shutdown`.
fn cmd_serve(flags: &HashMap<String, String>) {
    check_flags("serve", flags, &["addr", "workers", "queue", "archive"]);
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: flags.get("addr").cloned().unwrap_or(defaults.addr),
        workers: flag_u64(flags, "workers").map(|w| w as usize).unwrap_or(defaults.workers),
        queue_depth: flag_u64(flags, "queue").map(|q| q as usize).unwrap_or(defaults.queue_depth),
        archive: flags.get("archive").filter(|p| !p.is_empty()).map(std::path::PathBuf::from),
    };
    let server = Server::bind(&cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    // Stdout is line-buffered: this line reaches a redirected log
    // immediately, so scripts can parse the (possibly ephemeral) port.
    println!("listening on {}", server.local_addr());
    eprintln!(
        "cst-serve: {} workers, queue depth {}{}",
        cfg.workers.max(1),
        cfg.queue_depth,
        cfg.archive.as_ref().map(|d| format!(", archiving to {}", d.display())).unwrap_or_default()
    );
    let workers = server.start_workers();
    server.serve();
    for w in workers {
        let _ = w.join();
    }
    eprintln!("cst-serve: drained and stopped");
}

/// Daemon address override from `--addr` or the `CST_ADDR` env var; the
/// flag wins. Whichever source supplies the address is validated as
/// `HOST:PORT` and named in the error (exit 2) when malformed.
fn addr_override(flags: &HashMap<String, String>) -> Option<String> {
    let (addr, source) = match flags.get("addr").filter(|a| !a.is_empty()) {
        Some(a) => (a.clone(), "--addr"),
        None => (std::env::var("CST_ADDR").ok().filter(|a| !a.is_empty())?, "CST_ADDR"),
    };
    let valid = addr
        .rsplit_once(':')
        .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
    if !valid {
        eprintln!("{source} expects HOST:PORT with a 16-bit port, got `{addr}`");
        std::process::exit(2);
    }
    Some(addr)
}

fn client_addr(flags: &HashMap<String, String>) -> String {
    addr_override(flags).unwrap_or_else(|| ServeConfig::default().addr)
}

fn client_connect(flags: &HashMap<String, String>) -> Connection {
    Connection::connect(&client_addr(flags)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn client_session_id(flags: &HashMap<String, String>) -> u64 {
    flag_u64(flags, "session").unwrap_or_else(|| {
        eprintln!("--session is required");
        std::process::exit(2);
    })
}

fn json_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn json_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn json_str(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
}

/// Rebuild the outcome summary a `session_done` frame carries.
fn done_info_from_frame(v: &Value) -> DoneInfo {
    DoneInfo {
        tuner: json_str(v, "tuner"),
        best_ms: json_f64(v, "best_ms"),
        baseline_ms: json_f64(v, "baseline_ms"),
        setting: json_str(v, "setting"),
        evaluations: json_u64(v, "evaluations"),
        search_s: json_f64(v, "search_s"),
        faults: FaultStats {
            compile_errors: json_u64(v, "fault_compile"),
            launch_failures: json_u64(v, "fault_launch"),
            timeouts: json_u64(v, "fault_timeout"),
            outliers: json_u64(v, "fault_outliers"),
            retries: json_u64(v, "fault_retries"),
            quarantined: json_u64(v, "fault_quarantined"),
        },
    }
}

/// Consume a session stream (from `client tune` or `client watch`):
/// control frames drive the terminal UX, journal records optionally tee
/// into `--journal FILE`. Exits nonzero unless the session finished.
fn client_stream(conn: &mut Connection, flags: &HashMap<String, String>) {
    let mut journal: Option<std::fs::File> =
        flags.get("journal").filter(|p| !p.is_empty()).map(|p| {
            std::fs::File::create(p).unwrap_or_else(|e| {
                eprintln!("cannot open journal `{p}`: {e}");
                std::process::exit(2);
            })
        });
    loop {
        let frame = match conn.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => {
                eprintln!("daemon closed the stream before the session finished");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        match proto::frame_type(&frame).as_deref() {
            Some("accepted") => {
                let v = json::parse(&frame).expect("daemon frames are valid JSON");
                eprintln!("session {} accepted (queued)", json_u64(&v, "session"));
            }
            Some("busy") => {
                let v = json::parse(&frame).expect("daemon frames are valid JSON");
                eprintln!(
                    "daemon busy: {} running, {} queued (limit {})",
                    json_u64(&v, "running"),
                    json_u64(&v, "queued"),
                    json_u64(&v, "limit")
                );
                std::process::exit(1);
            }
            Some("error") => {
                let v = json::parse(&frame).expect("daemon frames are valid JSON");
                eprintln!("{}", json_str(&v, "message"));
                std::process::exit(1);
            }
            Some("session_done") => {
                let v = json::parse(&frame).expect("daemon frames are valid JSON");
                let state = json_str(&v, "state");
                if state == "done" {
                    print_outcome(&done_info_from_frame(&v));
                    return;
                }
                let error = json_str(&v, "error");
                if error.is_empty() {
                    eprintln!("session {}: {state}", json_u64(&v, "session"));
                } else {
                    eprintln!("tuning failed: {error}");
                }
                std::process::exit(1);
            }
            _ => {
                // A raw journal record, verbatim from the daemon.
                if let Some(f) = journal.as_mut() {
                    writeln!(f, "{frame}").unwrap_or_else(|e| {
                        eprintln!("cannot write journal: {e}");
                        std::process::exit(2);
                    });
                }
            }
        }
    }
}

/// Fetch one `metrics` frame from the daemon (exit 1 on anything else).
fn fetch_metrics_frame(addr: &str) -> String {
    let frames =
        cstuner::serve::roundtrip(addr, &proto::metrics_request_line()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    match frames.first() {
        Some(frame) if proto::frame_type(frame).as_deref() == Some("metrics") => frame.clone(),
        Some(frame) => {
            eprintln!("unexpected reply: {frame}");
            std::process::exit(1);
        }
        None => {
            eprintln!("daemon sent no reply");
            std::process::exit(1);
        }
    }
}

/// One `name value` line per numeric field of an object section.
fn metrics_kv_section(out: &mut String, v: &Value, key: &str, title: &str) {
    if let Some(Value::Obj(fields)) = v.get(key) {
        if fields.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title}:");
        for (name, val) in fields {
            if let Value::Num(x) = val {
                if *x == x.trunc() && x.abs() < 1e15 {
                    let _ = writeln!(out, "  {name:<28} {:>12}", *x as i64);
                } else {
                    let _ = writeln!(out, "  {name:<28} {x:>12.3}");
                }
            }
        }
    }
}

/// One `name count p50 p95 max` line per non-empty histogram digest.
fn metrics_hist_section(out: &mut String, v: &Value, key: &str, title: &str) {
    if let Some(Value::Obj(fields)) = v.get(key) {
        let live: Vec<_> = fields.iter().filter(|(_, h)| json_u64(h, "count") > 0).collect();
        if live.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title}:");
        for (name, h) in live {
            let (p50, p95) = report::hist_percentiles(h).unwrap_or((f64::NAN, f64::NAN));
            let _ = writeln!(
                out,
                "  {name:<28} count {:>8}  p50 {p50:>10.3}  p95 {p95:>10.3}  max {:>10.3}",
                json_u64(h, "count"),
                json_f64(h, "max")
            );
        }
    }
}

/// Render a `metrics` frame as the text dashboard shared by
/// `cstuner client metrics` and `cstuner top`.
fn render_metrics_frame(frame: &str) -> String {
    let v = json::parse(frame).expect("daemon frames are valid JSON");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cst-serve metrics v{}  uptime {:.1}s",
        json_u64(&v, "metrics_version"),
        json_f64(&v, "wall_uptime_ms") / 1e3
    );
    if let Some(s) = v.get("sessions") {
        let _ = writeln!(
            out,
            "sessions: {} queued, {} running, {} done, {} failed, {} cancelled",
            json_u64(s, "queued"),
            json_u64(s, "running"),
            json_u64(s, "done"),
            json_u64(s, "failed"),
            json_u64(s, "cancelled")
        );
    }
    metrics_kv_section(&mut out, &v, "counters", "counters");
    metrics_kv_section(&mut out, &v, "gauges", "gauges");
    metrics_hist_section(&mut out, &v, "hists", "histograms");
    metrics_kv_section(&mut out, &v, "wall_counters", "wall counters");
    metrics_hist_section(&mut out, &v, "wall_hists", "request latency (wall ms)");
    out
}

/// Poll the daemon's metrics every `interval_s` seconds and render the
/// dashboard — one connection per poll, since the daemon answers one
/// request per connection. `count` bounds the polls (`None` = forever).
/// On a terminal each poll repaints the screen; piped output separates
/// polls with a blank line.
fn metrics_watch(addr: &str, interval_s: f64, count: Option<u64>) {
    let mut polls = 0u64;
    loop {
        let frame = fetch_metrics_frame(addr);
        if std::io::stdout().is_terminal() {
            print!("\x1b[2J\x1b[H");
        } else if polls > 0 {
            println!();
        }
        print!("{}", render_metrics_frame(&frame));
        polls += 1;
        if count.is_some_and(|c| polls >= c) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval_s.max(0.05)));
    }
}

/// `cstuner client`: talk to a running daemon.
fn cmd_client(args: &[String]) {
    let sub = args.first().map(String::as_str).unwrap_or("");
    let (flags, _) = parse_args(&args[1.min(args.len())..]);
    match sub {
        "tune" => {
            let mut allowed: Vec<&str> = TUNE_FLAGS.to_vec();
            allowed.push("addr");
            check_flags("client tune", &flags, &allowed);
            let req = tune_request_from_flags(&flags);
            let mut conn = client_connect(&flags);
            conn.send_line(&proto::tune_request_line(&req)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            client_stream(&mut conn, &flags);
        }
        "watch" => {
            check_flags("client watch", &flags, &["addr", "session", "journal"]);
            let session = client_session_id(&flags);
            let mut conn = client_connect(&flags);
            conn.send_line(&proto::session_request_line("watch", session)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            client_stream(&mut conn, &flags);
        }
        "status" | "cancel" => {
            check_flags(&format!("client {sub}"), &flags, &["addr", "session"]);
            // `status` without --session asks for the whole-daemon
            // summary; `cancel` always needs a target session.
            let session = match (sub, flag_u64(&flags, "session")) {
                ("cancel", None) => Some(client_session_id(&flags)),
                (_, s) => s,
            };
            let request = match session {
                Some(id) => proto::session_request_line(sub, id),
                None => proto::status_summary_request_line(),
            };
            let frames =
                cstuner::serve::roundtrip(&client_addr(&flags), &request).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
            let Some(frame) = frames.first() else {
                eprintln!("daemon sent no reply");
                std::process::exit(1);
            };
            let v = json::parse(frame).expect("daemon frames are valid JSON");
            match proto::frame_type(frame).as_deref() {
                Some("session") => println!(
                    "session {}: {} ({} records)",
                    json_u64(&v, "session"),
                    json_str(&v, "state"),
                    json_u64(&v, "records")
                ),
                Some("status") => {
                    let s = v.get("sessions");
                    let count = |k: &str| s.map(|s| json_u64(s, k)).unwrap_or(0);
                    println!(
                        "sessions: {} queued, {} running, {} done, {} failed, {} cancelled",
                        count("queued"),
                        count("running"),
                        count("done"),
                        count("failed"),
                        count("cancelled")
                    );
                    for row in v.get("list").and_then(Value::as_arr).unwrap_or(&[]) {
                        println!(
                            "  session {}: {} ({} records) {}/{} {} seed {}",
                            json_u64(row, "session"),
                            json_str(row, "state"),
                            json_u64(row, "records"),
                            json_str(row, "stencil"),
                            json_str(row, "arch"),
                            json_str(row, "tuner"),
                            json_u64(row, "seed")
                        );
                    }
                }
                _ => {
                    eprintln!("{}", json_str(&v, "message"));
                    std::process::exit(1);
                }
            }
        }
        "metrics" => {
            check_flags("client metrics", &flags, &["addr", "json", "watch", "interval", "count"]);
            let addr = client_addr(&flags);
            if flags.contains_key("watch") {
                let interval = flag_f64(&flags, "interval").unwrap_or(2.0);
                metrics_watch(&addr, interval, flag_u64(&flags, "count"));
            } else {
                let frame = fetch_metrics_frame(&addr);
                if flags.contains_key("json") {
                    println!("{frame}");
                } else {
                    print!("{}", render_metrics_frame(&frame));
                }
            }
        }
        "shutdown" => {
            check_flags("client shutdown", &flags, &["addr"]);
            let frames =
                cstuner::serve::roundtrip(&client_addr(&flags), &proto::shutdown_request_line())
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(1);
                    });
            match frames.first() {
                Some(frame) if proto::frame_type(frame).as_deref() == Some("bye") => {
                    let v = json::parse(frame).expect("daemon frames are valid JSON");
                    println!(
                        "daemon stopped after {} sessions",
                        json_u64(&v, "sessions_completed")
                    );
                }
                Some(frame) => {
                    eprintln!("unexpected reply: {frame}");
                    std::process::exit(1);
                }
                None => {
                    eprintln!("daemon sent no reply");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            eprintln!(
                "usage: cstuner client <command> [--addr HOST:PORT]\n  \
                 client tune [tune flags]        submit a session and stream its journal\n  \
                 client status [--session N]     one-shot session state, or all sessions\n  \
                 client watch --session N        replay-and-follow a session's stream\n  \
                 client cancel --session N       cancel a queued or running session\n  \
                 client metrics [--json] [--watch [--interval S] [--count N]]\n                                  \
                 live operational metrics snapshot\n  \
                 client shutdown                 drain in-flight sessions, stop the daemon\n\
                 --addr falls back to the CST_ADDR env var, then the serve default"
            );
            std::process::exit(2);
        }
    }
}

fn cmd_version() {
    println!(
        "cstuner {} (journal schema v{})",
        env!("CARGO_PKG_VERSION"),
        cstuner::telemetry::SCHEMA_VERSION
    );
    println!("tuners: {}", cstuner::baselines::zoo::flag_list());
    println!("warm-start: {}", warm_provider_line());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if cmd == "version" || cmd == "--version" {
        cmd_version();
        return;
    }
    // `cstuner --quick --journal run.jsonl` is shorthand for `tune`.
    let (cmd, rest) =
        if cmd.starts_with("--") { ("tune", &args[..]) } else { (cmd, &args[1.min(args.len())..]) };
    let (flags, _) = parse_args(rest);
    match cmd {
        "list" => {
            check_flags("list", &flags, &[]);
            cmd_list();
        }
        "tune" => {
            check_flags("tune", &flags, &TUNE_FLAGS);
            run_tune(&flags);
        }
        "codegen" => {
            let mut allowed: Vec<&str> = TUNE_FLAGS.to_vec();
            allowed.push("out");
            check_flags("codegen", &flags, &allowed);
            let (kernel, session) = run_tune(&flags);
            let src = generate_cuda(&kernel, &session.outcome.best_setting);
            match flags.get("out") {
                Some(path) if !path.is_empty() => {
                    std::fs::write(path, &src.code).expect("write CUDA source");
                    eprintln!("wrote {} bytes to {path}", src.code.len());
                }
                _ => println!("\n{}", src.code),
            }
        }
        "report" => {
            check_flags("report", &flags, &["json"]);
            let lines = read_journal_lines(rest);
            if flags.contains_key("json") {
                // Machine-readable form: the same versioned RunSummary the
                // obs archive stores, as one JSON object.
                match obs::summarize("report", &lines) {
                    Ok(summary) => println!("{}", summary.to_json()),
                    Err(e) => {
                        eprintln!("invalid journal: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                match report::render_report(&lines) {
                    Ok(text) => print!("{text}"),
                    Err(e) => {
                        eprintln!("invalid journal: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "journal-check" => {
            check_flags("journal-check", &flags, &[]);
            let lines = read_journal_lines(rest);
            match schema::validate_journal(&lines) {
                Ok(summary) => {
                    println!(
                        "ok: {} records, {} event types ({})",
                        summary.records,
                        summary.types_seen.len(),
                        summary.types_seen.join(", ")
                    );
                }
                Err(e) => {
                    eprintln!("invalid journal: {e}");
                    std::process::exit(1);
                }
            }
        }
        "metrics-check" => {
            check_flags("metrics-check", &flags, &[]);
            let Some(path) = rest.iter().find(|a| !a.starts_with("--")) else {
                eprintln!("usage: cstuner metrics-check <metrics.json>");
                std::process::exit(2);
            };
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read `{path}`: {e}");
                std::process::exit(2);
            });
            let Some(line) = text.lines().find(|l| !l.trim().is_empty()) else {
                eprintln!("`{path}` is empty");
                std::process::exit(1);
            };
            match cstuner::serve::validate_metrics_frame(line) {
                Ok(()) => println!("ok: valid metrics frame"),
                Err(e) => {
                    eprintln!("invalid metrics frame: {e}");
                    std::process::exit(1);
                }
            }
        }
        "obs" => cmd_obs(rest),
        "kb" => cmd_kb(rest),
        "campaign" => cmd_campaign(rest),
        "serve" => cmd_serve(&flags),
        "client" => cmd_client(rest),
        "top" => {
            check_flags("top", &flags, &["addr", "interval", "count"]);
            let interval = flag_f64(&flags, "interval").unwrap_or(2.0);
            metrics_watch(&client_addr(&flags), interval, flag_u64(&flags, "count"));
        }
        _ => {
            eprintln!(
                "usage: cstuner <list|version|tune|codegen|report|journal-check|metrics-check|obs|kb|campaign|serve|client|top> \
                 [--stencil S] [--arch a100|v100] [--budget SECONDS] [--seed N] [--tuner T] \
                 [--quick] [--journal FILE] [--out FILE] [--addr HOST:PORT]"
            );
        }
    }
}
