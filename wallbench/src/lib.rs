//! Wall-time benchmark of the csTuner reproduction, end to end and per
//! layer. See `README.md` in this directory for the workloads, metrics
//! and how to read them.

pub mod checks;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use host::{context_fields, forbidden_env_set, Args};
use metrics::Outcome;

/// Parse the command line and refuse a non-default environment.
pub fn start(expect_trace: bool) -> Result<Args, String> {
    let args = Args::parse(&std::env::args().skip(1).collect::<Vec<_>>())?;
    let forbidden = forbidden_env_set();
    if !forbidden.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the default program",
            forbidden.join(", ")
        ));
    }
    if args.trace != expect_trace {
        return Err(format!(
            "--trace {} runs the `{}` binary",
            u8::from(args.trace),
            if args.trace { "wallbench-trace" } else { "wallbench" }
        ));
    }
    Ok(args)
}

/// Print the run context, then the result line (last), and return the
/// process exit code: 0 only if every output check passed.
pub fn finish(
    args: &Args,
    spin_ms: [f64; 2],
    notes: &[String],
    outcome: &Outcome,
    table: &[(&'static str, &'static str)],
) -> i32 {
    let mut context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}, \
         \"host_spin_ms\": [{:?}, {:?}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        context_fields(),
        spin_ms[0],
        spin_ms[1]
    );
    for n in notes {
        context.push_str(", ");
        context.push_str(n);
    }
    context.push_str("}}");
    println!("{context}");
    println!("{}", outcome.to_json(table));
    if outcome.correct() {
        0
    } else {
        1
    }
}
