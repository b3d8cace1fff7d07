//! Provenance recorded with every result: which tree, machine, build and
//! thread counts produced it.

use std::process::Command;

/// Worker threads the benchmark's `tsserve` instances run with.
pub const SERVE_WORKERS: usize = 4;

/// The `env` block as a JSON object.
pub fn env_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let (rev, dirty) = git_rev();
    format!(
        concat!(
            "{{\"git_rev\":\"{}\",\"git_dirty\":{},\"nproc\":{},\"cpu_model\":\"{}\",",
            "\"profile\":\"{}\",\"kshape_threads\":{},\"tsserve_workers\":{},",
            "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}"
        ),
        rev,
        dirty,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        escape(&cpu_model()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        kshape::spectra::resolve_threads(0),
        SERVE_WORKERS,
        workload,
        seed,
        seconds,
        trace
    )
}

/// `(rev, dirty)` of the checkout, or `("unknown", null)` outside git.
fn git_rev() -> (String, &'static str) {
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = match run(&["status", "--porcelain", "--untracked-files=no"]) {
                Some(s) if s.is_empty() => "false",
                Some(_) => "true",
                None => "null",
            };
            (rev, dirty)
        }
        None => ("unknown".to_string(), "null"),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| if c == '"' || c == '\\' { ' ' } else { c })
        .collect()
}
