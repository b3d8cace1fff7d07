//! `kshape-cli` — cluster a UCR-format time-series file from the command
//! line.
//!
//! ```text
//! kshape-cli <FILE> --k <K> [--restarts N] [--seed S] [--max-iter I]
//!            [--silhouette] [--centroids]
//! ```
//!
//! The file must be in UCR text format (one series per line: integer label
//! first — used only for scoring, pass any value if unknown — then the
//! values, comma- or whitespace-separated). Series are z-normalized before
//! clustering, as the paper prescribes. Output: one cluster id per input
//! line, plus a Rand-index score against the file's labels.

use std::path::Path;
use std::process::ExitCode;

use kshape::multi::try_fit_best;
use kshape::KShapeConfig;
use tsdata::ucr;
use tseval::rand_index::rand_index;

struct Args {
    file: String,
    k: usize,
    restarts: usize,
    seed: u64,
    max_iter: usize,
    silhouette: bool,
    centroids: bool,
}

fn usage() -> &'static str {
    "usage: kshape-cli <FILE> --k <K> [--restarts N] [--seed S] [--max-iter I] \
     [--silhouette] [--centroids]"
}

fn parse_args() -> Result<Args, String> {
    let mut file = None;
    let mut k = None;
    let mut restarts = 5usize;
    let mut seed = 0u64;
    let mut max_iter = 100usize;
    let mut silhouette = false;
    let mut centroids = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--k" => {
                k = Some(
                    it.next()
                        .ok_or("--k needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --k: {e}"))?,
                );
            }
            "--restarts" => {
                restarts = it
                    .next()
                    .ok_or("--restarts needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --restarts: {e}"))?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--max-iter" => {
                max_iter = it
                    .next()
                    .ok_or("--max-iter needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --max-iter: {e}"))?;
            }
            "--silhouette" => silhouette = true,
            "--centroids" => centroids = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        file: file.ok_or_else(|| format!("missing input file\n{}", usage()))?,
        k: k.ok_or_else(|| format!("missing --k\n{}", usage()))?,
        restarts: restarts.max(1),
        seed,
        max_iter: max_iter.max(1),
        silhouette,
        centroids,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let content = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let name = Path::new(&args.file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("dataset");
    let mut data = ucr::parse(name, &content).map_err(|e| e.to_string())?;
    if data.is_empty() {
        return Err("the file contains no series".into());
    }
    if args.k == 0 || args.k > data.n_series() {
        return Err(format!(
            "--k must be in 1..={} for this file",
            data.n_series()
        ));
    }
    data.z_normalize();

    let cfg = KShapeConfig {
        k: args.k,
        max_iter: args.max_iter,
        seed: args.seed,
        ..Default::default()
    };
    let result = try_fit_best(&cfg, &data.series, args.restarts).map_err(|e| e.to_string())?;

    eprintln!(
        "# {}: {} series × {} samples, k = {}, best of {} restarts",
        name,
        data.n_series(),
        data.series_len(),
        args.k,
        args.restarts
    );
    eprintln!(
        "# converged: {}, iterations: {}, inertia: {:.4}",
        result.converged, result.iterations, result.inertia
    );
    eprintln!(
        "# Rand index vs file labels: {:.4}",
        rand_index(&result.labels, &data.labels)
    );
    if args.silhouette {
        // Pairwise SBD silhouette — O(n²) but informative.
        let plan = kshape::sbd::SbdPlan::new(data.series_len());
        let prepared: Vec<_> = data.series.iter().map(|s| plan.prepare(s)).collect();
        let n = data.n_series();
        let mut dmat = vec![0.0; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d = plan.sbd_prepared(&prepared[i], &data.series[j]).dist;
                dmat[i * n + j] = d;
                dmat[j * n + i] = d;
            }
        }
        let s = tseval::silhouette::silhouette_score(&result.labels, |i, j| dmat[i * n + j]);
        eprintln!("# silhouette (SBD): {s:.4}");
    }

    for &l in &result.labels {
        println!("{l}");
    }
    if args.centroids {
        for (j, c) in result.centroids.iter().enumerate() {
            let values: Vec<String> = c.iter().map(|v| format!("{v:.6}")).collect();
            println!("# centroid {j}: {}", values.join(","));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
