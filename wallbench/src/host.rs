//! The host side of a run: environment guard, context record, the
//! host-drift spin, peak memory and the scratch directory.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Environment variables that change what the program does or how wide
/// it runs. A run refuses to start under any of them, so the numbers
/// always describe the default program. Names ending in `_` are prefixes.
pub const FORBIDDEN_ENV: [&str; 9] = [
    "CST_SERIAL",
    "CST_NO_MEMO",
    "CST_MEMO_CAP",
    "CST_FAULT_",
    "CST_WARM",
    "CST_JOURNAL",
    "CST_FORCE_LANES",
    "RAYON_NUM_THREADS",
    "CST_ADDR",
];

/// The forbidden variables set in this environment.
pub fn forbidden_env_set() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            FORBIDDEN_ENV.iter().any(|f| if f.ends_with('_') { k.starts_with(f) } else { k == f })
        })
        .collect()
}

/// CPUs the scheduler offers this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// First line of a command's standard output, or `unknown`. The child
/// is always waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// JSON-escape a short context string.
fn quoted(s: &str) -> String {
    let mut out = String::new();
    cst_telemetry::json::write_escaped(&mut out, s);
    out
}

/// Fixed context recorded with every result: CPU counts, commit and
/// compiler. A checkout that is not a git repository records `unknown`.
pub fn context_fields() -> String {
    format!(
        "\"nproc\": {}, \"available_parallelism\": {}, \"git_commit\": {}, \"rustc\": {}",
        quoted(&command_line("nproc", &[])),
        available_parallelism(),
        quoted(&command_line("git", &["rev-parse", "HEAD"])),
        quoted(&command_line("rustc", &["-V"])),
    )
}

/// Iterations of the host-drift spin block (about 0.2 s on a 2-CPU
/// container).
const SPIN_ITERS: u64 = 150_000_000;

/// Time a fixed CPU-only block, in ms. The figure only tells host drift
/// from program change; it never scales or corrects another metric.
pub fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1d_u64);
    for _ in 0..black_box(SPIN_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM is readable from /proc/self/status")
}

/// A per-process scratch directory under `.wallbench/` in the current
/// directory (the checkout root), removed by [`WorkDir`]'s `Drop`.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.wallbench/work-<pid>`, emptied first.
    pub fn create(tag: &str) -> WorkDir {
        let dir = std::env::current_dir()
            .expect("current directory is readable")
            .join(".wallbench")
            .join(format!("work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory can be created");
        WorkDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Parsed command line: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Run length the request lists are sized for.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parse `std::env::args`-style arguments (program name excluded).
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number `{value}`"));
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}
