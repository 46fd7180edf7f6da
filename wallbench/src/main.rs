//! Untraced run: the end-to-end metrics of one workload.
//!
//! `wallbench --workload W --seed N --seconds S --trace 0`

use wallbench::host::{spin_ms, WorkDir};
use wallbench::metrics::END_TO_END;
use wallbench::{finish, serve, start, workload};

fn run() -> Result<i32, String> {
    let args = start(false)?;
    let spin_before = spin_ms();
    let measured = match args.workload.as_str() {
        "cstuner-pipeline" => workload::pipeline(&args)?,
        "zoo-search" => workload::zoo(&args)?,
        "serve-campaign" => {
            let work = WorkDir::create("serve");
            serve::serve_campaign(&args, work.path(), None)?.measured
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let outcome = measured.end_to_end();
    let spin_after = spin_ms();
    Ok(finish(&args, [spin_before, spin_after], &measured.notes, &outcome, &END_TO_END))
}

fn main() {
    let code = run().unwrap_or_else(|e| {
        eprintln!("wallbench: {e}");
        2
    });
    std::process::exit(code);
}
