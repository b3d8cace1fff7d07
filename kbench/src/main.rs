//! `kbench` — one benchmark for the whole k-Shape system: batch fits,
//! out-of-core fits, serving and streaming, with per-layer attribution.
//! `README.md` in this directory says why each workload and metric is
//! there; `BENCHMARK.json` at the repository root fixes the bounds.
//!
//! ```text
//! kbench --workload <fit_wide|fit_long|serve_mixed|stream_feed|all>
//!        [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Standard output ends with one JSON line per workload:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, preceded by
//! a report line carrying provenance and the per-workload metric names.
//! The exit code is 1 when an output check failed, 2 on a usage error.

mod env;
mod fits;
mod layers;
mod report;
mod serve;
mod stats;
mod stream;

use std::path::{Path, PathBuf};

use report::{Metric, Outcome};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Workloads in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["fit_wide", "fit_long", "serve_mixed", "stream_feed"];
/// Scratch space, relative to the working directory; removed after a run.
const WORK_DIR: &str = ".kbench_work";

/// The end-to-end metrics of an untraced run, in output order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "op_p50_ms",
    "op_tail_ms",
    "op2_p50_ms",
    "throughput_per_s",
    "rand_index",
    "ok_share",
];

/// The per-layer metrics of a traced run, with their units. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("spectra.series_rfft_ms", "ms"),
    ("sbd.spectra.series_ffts", "count"),
    ("sbd.pair_sweep_ms", "ms"),
    ("sbd.pairs", "count"),
    ("sbd.ns_per_pair", "ns"),
    ("extraction.gram_ms", "ms"),
    ("extraction.eigen_ms", "ms"),
    ("extraction.gram_flops", "flop"),
    ("extraction.eigen_flops", "flop"),
    ("kshape.refinement_ms", "ms"),
    ("kshape.assignment_ms", "ms"),
    ("kshape.fit_self_ms", "ms"),
    ("kshape.iterations", "count"),
    ("kshape.ooc.refinement_ms", "ms"),
    ("kshape.ooc.assignment_ms", "ms"),
    ("store.segment_loads", "count"),
    ("store.segment_hit_ratio", "ratio"),
    ("store.bytes_decoded", "bytes"),
    ("stream.arrivals", "count"),
    ("stream.refresh", "count"),
    ("stream.reseed", "count"),
    ("stream.drift", "count"),
    ("stream.quarantine", "count"),
    ("stream.reseed_push_ms", "ms"),
    ("stream.quarantine_push_us", "us"),
    ("stream.checkpoint_ms", "ms"),
    ("stream.checkpoint_bytes", "bytes"),
    ("serve.request_ms", "ms"),
    ("serve.outside_handler_ms", "ms"),
    ("wire.parse_us", "us"),
    ("registry.assign_one_us", "us"),
    ("serve.shed", "count"),
    ("serve.stream.checkpoint", "count"),
    ("checkpoint.store_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("loadgen.late_p99_ms", "ms"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: kbench --workload <fit_wide|fit_long|serve_mixed|stream_feed|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn run(workload: &str, args: &Args, work: &Path) -> Outcome {
    match workload {
        "fit_wide" => fits::run(&fits::WIDE, args, work),
        "fit_long" => fits::run(&fits::LONG, args, work),
        "serve_mixed" => serve::run(args, work),
        "stream_feed" => stream::run(args, work),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Puts the workload's metrics in the declared order and set, filling
/// unexercised layers with 0; a non-finite value fails the run.
fn conform(outcome: &mut Outcome, trace: bool) {
    let declared: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&n| (n, "")).collect()
    };
    let mut given = std::mem::take(&mut outcome.metrics);
    for m in &given {
        assert!(
            declared.iter().any(|(n, _)| *n == m.name),
            "metric {} is not declared",
            m.name
        );
    }
    for (name, unit) in declared {
        let m = match given.iter().position(|m| m.name == name) {
            Some(i) => given.swap_remove(i),
            None if trace => Metric {
                name,
                value: 0.0,
                unit,
                samples: None,
            },
            None => continue,
        };
        if !m.value.is_finite() {
            outcome.tally.fail(format!("{name} is not finite"));
        }
        outcome.metrics.push(m);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for workload in workloads {
        let work: PathBuf = Path::new(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&work) {
            eprintln!("kbench: cannot create {}: {e}", work.display());
            std::process::exit(1);
        }
        let mut outcome = run(workload, &args, &work);
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(WORK_DIR);
        conform(&mut outcome, args.trace);
        let env = env::env_json(workload, args.seed, args.seconds, args.trace);
        println!("{}", report::report_line(workload, &env, &outcome));
        println!("{}", report::result_line(&outcome));
        all_correct &= outcome.correct();
    }
    if !all_correct {
        eprintln!("kbench: an output check failed");
        std::process::exit(1);
    }
}
