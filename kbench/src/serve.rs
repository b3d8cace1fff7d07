//! `serve_mixed`: an in-process `tsserve` with a checkpoint directory,
//! driven over loopback by an open loop at a fixed offered rate (assign
//! reads, stream-push writes and a periodic persisted refit), then by a
//! short closed loop of assigns.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsdata::generators::{cbf, GenParams};
use tsdata::normalize::try_z_normalize;
use tseval::rand_index;
use tsexperiments::stream_eval::class_series;
use tsrand::{Rng, StdRng};
use tsserve::loadgen::http_request;
use tsserve::wire::push_series_json;
use tsserve::{AppState, Model, PreparedModel, ServeConfig, Server, ServerHandle};

use crate::layers::{self, series_body, Panel};
use crate::report::{Metric, Outcome, Tally};
use crate::stats::{median, p90, quantile, sorted, windowed};
use crate::Args;

/// Model series length and clusters.
const M: usize = 128;
const K: usize = 3;
/// Models served side by side, each fitted on its own CBF rows. Reads
/// rotate over them, so the Rand index averages over `MODELS` fits
/// instead of resting on one k-Shape optimum.
const MODELS: usize = 8;
/// Training rows per CBF class for each served model.
const TRAIN_PER_CLASS: usize = 50;
/// Distinct assign bodies, and rows per body.
const BODIES: usize = 128;
const ASSIGN_ROWS: usize = 3;
/// Stream series length and arrivals per push. The server checkpoints a
/// stream every 64 accepted arrivals, so every 16th write persists.
const STREAM_M: usize = 64;
const PUSH_ROWS: usize = 4;
/// Offered open-loop rates, requests per second: one client sends the
/// reads, the other the writes and refits, so a slow write delays later
/// writes but never a read's send time (closed-loop capacity on a 2-core
/// box is about 930 assigns/s).
const READ_RATE: f64 = 150.0;
const WRITE_RATE: f64 = 40.0;
/// Every `REFIT_EVERY`-th write slot refits (and persists) a model instead.
const REFIT_EVERY: usize = 100;
/// Client threads, and so connections in flight.
const CLIENTS: usize = 2;
/// Share of the run spent in the open loop; the rest is the closed loop.
const OPEN_SHARE: f64 = 0.7;
/// Times the set-up is repeated (its median is `setup_s`).
const SETUP_REPS: usize = 5;
/// Window of the open-loop latency statistics, seconds (writes use twice
/// this); each statistic is the median over windows.
const LATENCY_WINDOW: f64 = 1.0;
/// Window of the closed-loop capacity count, seconds.
const CAPACITY_WINDOW: f64 = 0.5;
/// Ring lines the server keeps, enough for every event of a run.
const TELEMETRY_LINES: usize = 1 << 19;
const TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Assign,
    Write,
    Refit,
}

/// One completed open-loop request.
struct Sample {
    kind: Kind,
    /// Due time, seconds after the open loop started.
    at: f64,
    /// From its due time to the response, ms.
    due_ms: f64,
    /// From its actual send to the response, ms.
    sent_ms: f64,
    /// How late it was sent, ms.
    late_ms: f64,
    reseeded: bool,
}

/// Inputs generated from the seed.
struct Inputs {
    fit_bodies: Vec<String>,
    bodies: Vec<String>,
    body_rows: Vec<Vec<Vec<f64>>>,
    body_truth: Vec<usize>,
    pushes: Vec<String>,
    train_rows: Vec<Vec<f64>>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = GenParams {
        n_per_class: TRAIN_PER_CLASS,
        len: M,
        ..GenParams::default()
    };
    let trains: Vec<_> = (0..MODELS)
        .map(|_| cbf::generate(&params, &mut rng))
        .collect();
    let fit_bodies = trains
        .iter()
        .map(|train| {
            let mut body = String::from("{\"series\":");
            push_series_json(&mut body, &train.series);
            // JSON numbers carry 53 bits exactly.
            body.push_str(&format!(",\"k\":{K},\"seed\":{}}}", rng.next_u64() >> 11));
            body
        })
        .collect();
    let mut body_rows = Vec::with_capacity(BODIES);
    let mut body_truth = Vec::with_capacity(BODIES * ASSIGN_ROWS);
    for _ in 0..BODIES {
        let rows: Vec<Vec<f64>> = (0..ASSIGN_ROWS)
            .map(|_| {
                let class = rng.gen_range(0..3);
                body_truth.push(class);
                cbf::generate_one(class, M, &mut rng)
            })
            .collect();
        body_rows.push(rows);
    }
    let bodies = body_rows.iter().map(|r| series_body(r)).collect();
    let pushes = (0..BODIES)
        .map(|_| {
            let rows: Vec<Vec<f64>> = (0..PUSH_ROWS)
                .map(|_| {
                    let class = rng.gen_range(0..K);
                    class_series(class, K, false, STREAM_M, &mut rng)
                })
                .collect();
            series_body(&rows)
        })
        .collect();
    let train_rows = trains[0]
        .series
        .iter()
        .map(|r| try_z_normalize(r).expect("CBF rows have variance"))
        .collect();
    Inputs {
        fit_bodies,
        bodies,
        body_rows,
        body_truth,
        pushes,
        train_rows,
    }
}

/// `"labels":[..]` of a response body.
fn labels_of(body: &str) -> Option<&str> {
    let from = body.find("\"labels\":[")? + "\"labels\":".len();
    let to = from + body[from..].find(']')? + 1;
    Some(&body[from..to])
}

/// What must repeat across refits of the same rows: the ladder rung that
/// answered and the labels.
fn fit_signature(body: &str) -> Option<String> {
    let from = body.find("\"rung\":")?;
    let rung = &body[from..from + body[from..].find(',')?];
    Some(format!("{rung} {}", labels_of(body)?))
}

fn labels_json(labels: &[usize]) -> String {
    let parts: Vec<String> = labels.iter().map(usize::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// Boots the server, fits the models, creates and bootstraps the stream.
/// Returns the server and the signature of each model's first fit.
fn boot(inp: &Inputs, seed: u64, dir: &Path) -> Result<(ServerHandle, Vec<String>), String> {
    let server = Server::bind(ServeConfig {
        workers: crate::env::SERVE_WORKERS,
        checkpoint_dir: Some(dir.to_path_buf()),
        telemetry_capacity: TELEMETRY_LINES,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?
    .spawn();
    let addr = server.addr();
    let mut signatures = Vec::with_capacity(MODELS);
    for (j, fit_body) in inp.fit_bodies.iter().enumerate() {
        let path = format!("/v1/models/bench{j}/fit");
        let (status, body) = http_request(addr, "POST", &path, fit_body, TIMEOUT)
            .map_err(|e| format!("{path}: {e}"))?;
        if status != 200 {
            return Err(format!("{path}: HTTP {status}: {body}"));
        }
        signatures.push(fit_signature(&body).ok_or("fit: no rung or labels")?);
    }
    let create = format!("{{\"k\":{K},\"m\":{STREAM_M},\"seed\":{seed}}}");
    let (status, body) = http_request(addr, "POST", "/v1/streams/feed", &create, TIMEOUT)
        .map_err(|e| format!("stream create: {e}"))?;
    if status != 200 {
        return Err(format!("stream create: HTTP {status}: {body}"));
    }
    // Enough arrivals to complete the warmup, so writes are steady-state.
    for push in inp.pushes.iter().take(8) {
        let (status, body) = http_request(addr, "POST", "/v1/streams/feed/push", push, TIMEOUT)
            .map_err(|e| format!("stream warmup: {e}"))?;
        if status != 200 {
            return Err(format!("stream warmup: HTTP {status}: {body}"));
        }
    }
    Ok((server, signatures))
}

/// What the server must answer, per model: the labels of each assign
/// body (`assign_one` run in-process on the served model), the labels of
/// every pooled row, and the model.
struct Expected {
    bodies: Vec<String>,
    rows: Vec<usize>,
    model: Model,
}

fn expected(state: &AppState, inp: &Inputs) -> Result<Vec<Expected>, String> {
    let mut scratch = kshape::sbd::SbdScratch::default();
    (0..MODELS)
        .map(|j| {
            let model = state
                .registry
                .get(&format!("bench{j}"))
                .ok_or("model missing")?
                .model
                .clone();
            let prepared =
                PreparedModel::new(model.clone()).map_err(|e| format!("prepare: {e}"))?;
            let mut rows = Vec::new();
            let mut bodies = Vec::new();
            for body_rows in &inp.body_rows {
                let labels: Vec<usize> = body_rows
                    .iter()
                    .map(|r| {
                        let z = try_z_normalize(r).expect("CBF rows have variance");
                        prepared.assign_one(&z, &mut scratch).0
                    })
                    .collect();
                rows.extend_from_slice(&labels);
                bodies.push(labels_json(&labels));
            }
            Ok(Expected {
                bodies,
                rows,
                model,
            })
        })
        .collect()
}

/// Sends one request and checks its answer; `Ok(true)` marks a write
/// whose arrivals triggered a stream reseed.
fn exchange(
    addr: SocketAddr,
    kind: Kind,
    slot: usize,
    inp: &Inputs,
    want: &[Expected],
    fits: &[String],
) -> Result<bool, String> {
    let (path, body) = match kind {
        Kind::Assign => (
            format!("/v1/models/bench{}/assign", slot % MODELS),
            &inp.bodies[(slot / MODELS) % BODIES],
        ),
        Kind::Write => (
            "/v1/streams/feed/push".to_string(),
            &inp.pushes[slot % BODIES],
        ),
        Kind::Refit => {
            let j = (slot / REFIT_EVERY) % MODELS;
            (format!("/v1/models/bench{j}/fit"), &inp.fit_bodies[j])
        }
    };
    let (status, resp) =
        http_request(addr, "POST", &path, body, TIMEOUT).map_err(|e| format!("{path}: {e}"))?;
    if status != 200 {
        return Err(format!("{path}: HTTP {status}"));
    }
    match kind {
        Kind::Assign => {
            let expect = &want[slot % MODELS].bodies[(slot / MODELS) % BODIES];
            if labels_of(&resp) != Some(expect.as_str()) {
                return Err(format!(
                    "{path}: labels differ from in-process assign_one: {resp}"
                ));
            }
            Ok(false)
        }
        Kind::Write => {
            if resp.matches("\"status\":\"assigned\"").count() != PUSH_ROWS {
                return Err(format!("{path}: not every arrival assigned: {resp}"));
            }
            Ok(resp.contains("\"reseeded\":true"))
        }
        Kind::Refit => {
            if fit_signature(&resp).as_deref() != Some(fits[(slot / REFIT_EVERY) % MODELS].as_str())
            {
                return Err(format!("{path}: refit differs from the first fit: {resp}"));
            }
            Ok(false)
        }
    }
}

/// The open loop's schedule: `(kind, slot, due offset in seconds)` for
/// client `c` over `dur` seconds. Client 0 reads; client 1 writes and
/// refits.
fn schedule(c: usize, dur: f64) -> Vec<(Kind, usize, f64)> {
    let (rate, kind_of): (f64, fn(usize) -> Kind) = if c == 0 {
        (READ_RATE, |_| Kind::Assign)
    } else {
        (WRITE_RATE, |slot| {
            if slot % REFIT_EVERY == REFIT_EVERY / 2 {
                Kind::Refit
            } else {
                Kind::Write
            }
        })
    };
    (0..(dur * rate) as usize)
        .map(|slot| (kind_of(slot), slot, slot as f64 / rate))
        .collect()
}

type Outcomes = Vec<(Option<Sample>, Result<(), String>)>;

/// Open loop: each request is sent at its due time, or as soon as its
/// client is free when the previous request ran past it.
fn open_loop(
    addr: SocketAddr,
    inp: &Inputs,
    want: &[Expected],
    fits: &[String],
    dur: Duration,
) -> Outcomes {
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (kind, slot, offset) in schedule(c, dur.as_secs_f64()) {
                        let due = start + Duration::from_secs_f64(offset);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let result = exchange(addr, kind, slot, inp, want, fits);
                        let done = Instant::now();
                        let sample = Sample {
                            kind,
                            at: offset,
                            due_ms: (done - due).as_secs_f64() * 1e3,
                            sent_ms: (done - sent).as_secs_f64() * 1e3,
                            late_ms: (sent - due).as_secs_f64() * 1e3,
                            reseeded: *result.as_ref().unwrap_or(&false),
                        };
                        out.push((Some(sample), result.map(|_| ())));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    })
}

/// Closed loop: each client sends its next assign as soon as the previous
/// one is answered. Returns each answer's completion time, in seconds
/// since the phase started, with its check.
fn closed_loop(
    addr: SocketAddr,
    inp: &Inputs,
    want: &[Expected],
    dur: Duration,
) -> Vec<(f64, Result<(), String>)> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut slot = c;
                    while start.elapsed() < dur {
                        let result = exchange(addr, Kind::Assign, slot, inp, want, &[]);
                        out.push((start.elapsed().as_secs_f64(), result.map(|_| ())));
                        slot += CLIENTS;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    })
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let inp = inputs(args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut booted = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, _)) = booted.take() {
            if let Err(e) = ServerHandle::drain_and_join(server) {
                tally.op(Err(format!("drain: {e}")));
            }
        }
        let t = Instant::now();
        match boot(&inp, args.seed, &work.join(format!("serve{rep}"))) {
            Ok(b) => booted = Some(b),
            Err(e) => {
                tally.op(Err(e));
                return Outcome::aborted(tally);
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let Some((server, fits)) = booted else {
        return Outcome::aborted(tally);
    };
    let setup_s = median(&setups);
    let state: Arc<AppState> = server.state();
    let addr = server.addr();
    let want = match expected(&state, &inp) {
        Ok(e) => e,
        Err(e) => {
            tally.op(Err(e));
            let _ = server.drain_and_join();
            return Outcome::aborted(tally);
        }
    };

    let total = Duration::from_secs(args.seconds);
    let open = open_loop(addr, &inp, &want, &fits, total.mul_f64(OPEN_SHARE));
    let closed = closed_loop(addr, &inp, &want, total.mul_f64(1.0 - OPEN_SHARE));
    let mut samples = Vec::new();
    for (sample, result) in open {
        tally.op(result);
        samples.extend(sample);
    }
    // Capacity: answers per second in each closed-loop window.
    let mut completions = Vec::new();
    for (done, result) in closed {
        if result.is_ok() {
            completions.push((done, 1.0 / CAPACITY_WINDOW));
        }
        tally.op(result);
    }
    let capacity = windowed(&completions, CAPACITY_WINDOW, 1, |w| w.iter().sum());

    let of = |kind: Kind| -> Vec<(f64, f64)> {
        samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.at, s.due_ms))
            .collect()
    };
    let (assign_due, write_due) = (of(Kind::Assign), of(Kind::Write));
    let assign_p50 = windowed(&assign_due, LATENCY_WINDOW, 50, median);
    let assign_p90 = windowed(&assign_due, LATENCY_WINDOW, 50, p90);
    let write_p50 = windowed(&write_due, 2.0 * LATENCY_WINDOW, 20, median);
    let all_assign: Vec<f64> = assign_due.iter().map(|&(_, v)| v).collect();
    let assign_p99 = quantile(&sorted(all_assign), 0.99);
    let late = sorted(samples.iter().map(|s| s.late_ms).collect());
    let late_p99 = quantile(&late, 0.99);
    // Behind schedule: the 99th-percentile send ran more than one read
    // interval late.
    let behind = late_p99 > 1e3 / READ_RATE;
    if behind {
        eprintln!(
            "kbench: open-loop generator fell behind its schedule (late p99 {late_p99:.3} ms)"
        );
    }
    let ri = want
        .iter()
        .map(|e| rand_index(&e.rows, &inp.body_truth))
        .sum::<f64>()
        / MODELS as f64;
    let timed = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    };
    let plain = |name, value, unit| Metric {
        name,
        value,
        unit,
        samples: None,
    };
    let mut notes = vec![
        ("loadgen_behind", format!("{behind}")),
        ("offered_rps", format!("{}", READ_RATE + WRITE_RATE)),
        ("refits", format!("{}", of(Kind::Refit).len())),
    ];

    let mut metrics = Vec::new();
    if args.trace {
        metrics = traced(
            &state,
            addr,
            &inp,
            &want[0].model,
            &samples,
            work,
            &mut tally,
        );
        metrics.push(plain("loadgen.late_p99_ms", late_p99, "ms"));
        notes.push((
            "telemetry_dropped",
            format!("{}", state.telemetry.dropped()),
        ));
    }
    if let Err(e) = server.drain_and_join() {
        tally.op(Err(format!("drain: {e}")));
    }
    let mut named = Vec::new();
    if !args.trace {
        metrics = vec![
            plain("setup_s", setup_s, "s"),
            timed("op_p50_ms", assign_p50, "ms", assign_due.len()),
            timed("op_tail_ms", assign_p90, "ms", assign_due.len()),
            timed("op2_p50_ms", write_p50, "ms", write_due.len()),
            plain("throughput_per_s", capacity, "1/s"),
            plain("rand_index", ri, "ratio"),
            plain("ok_share", tally.ok_share(), "share"),
        ];
        named = vec![
            plain("setup_s", setup_s, "s"),
            timed("assign_p50_ms", assign_p50, "ms", assign_due.len()),
            timed("assign_p90_ms", assign_p90, "ms", assign_due.len()),
            timed("assign_p99_ms", assign_p99, "ms", assign_due.len()),
            timed("write_p50_ms", write_p50, "ms", write_due.len()),
            timed("serve_capacity_rps", capacity, "1/s", completions.len()),
            plain("failed_share", 1.0 - tally.ok_share(), "share"),
        ];
    }
    Outcome {
        tally,
        metrics,
        named,
        notes,
    }
}

/// Per-layer metrics of a traced run: the server's own spans and
/// counters from `/v1/telemetry`, and the layer panel on the served
/// model and its training rows.
fn traced(
    state: &AppState,
    addr: SocketAddr,
    inp: &Inputs,
    model: &Model,
    samples: &[Sample],
    work: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let plain = |name, value, unit| Metric {
        name,
        value,
        unit,
        samples: None,
    };
    let mut metrics = Vec::new();
    let stream_json = match state.streams.get("feed") {
        Some(entry) => {
            let entry = entry.lock().expect("stream lock poisoned");
            let t = Instant::now();
            let json = entry.engine.to_json();
            metrics.push(plain(
                "stream.checkpoint_ms",
                t.elapsed().as_secs_f64() * 1e3,
                "ms",
            ));
            metrics.push(plain("stream.checkpoint_bytes", json.len() as f64, "bytes"));
            let s = entry.engine.stats();
            metrics.push(plain("stream.refresh", s.refreshes as f64, "count"));
            metrics.push(plain("stream.reseed", s.reseeds as f64, "count"));
            metrics.push(plain("stream.arrivals", s.arrivals as f64, "count"));
            json
        }
        None => {
            tally.op(Err("stream missing".into()));
            String::new()
        }
    };
    let panel = Panel {
        rows: &inp.train_rows,
        centroids: &model.centroids,
        request_rows: &inp.body_rows[0]
            .iter()
            .map(|r| try_z_normalize(r).expect("CBF rows have variance"))
            .collect::<Vec<_>>(),
        checkpoint_payload: &stream_json,
        dir: &work.join("probe"),
    };
    match layers::run(&panel) {
        Ok(m) => metrics.extend(m),
        Err(e) => tally.op(Err(format!("layer panel: {e}"))),
    }

    let lines = match http_request(addr, "GET", "/v1/telemetry", "", TIMEOUT) {
        Ok((200, body)) => body,
        other => {
            tally.op(Err(format!("telemetry: {:?}", other.map(|(s, _)| s))));
            String::new()
        }
    };
    let mut t = Telemetry::default();
    for line in lines.lines() {
        t.add(line);
    }
    let request_ms = median(&t.request_ns) * 1e-6;
    let assign_sent: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind == Kind::Assign)
        .map(|s| s.sent_ms)
        .collect();
    let reseed: Vec<f64> = samples
        .iter()
        .filter(|s| s.reseeded)
        .map(|s| s.sent_ms)
        .collect();
    let fits = t.fits.max(1) as f64;
    let ms = 1e-6;
    metrics.extend([
        plain("serve.request_ms", request_ms, "ms"),
        plain(
            "serve.outside_handler_ms",
            median(&assign_sent) - request_ms,
            "ms",
        ),
        plain("serve.shed", t.count("serve.shed"), "count"),
        plain(
            "serve.stream.checkpoint",
            t.count("serve.stream.checkpoint"),
            "count",
        ),
        plain("stream.drift", t.count("stream.drift"), "count"),
        plain("stream.quarantine", t.count("stream.quarantine"), "count"),
        plain("stream.reseed_push_ms", median(&reseed), "ms"),
        plain(
            "sbd.spectra.series_ffts",
            t.count("sbd.spectra.series_ffts") / fits,
            "count",
        ),
        plain(
            "sbd.pairs",
            t.count("sbd.spectra.pair_sweeps") / fits,
            "count",
        ),
        plain(
            "kshape.refinement_ms",
            t.span("kshape.refinement") * ms / fits,
            "ms",
        ),
        plain(
            "kshape.assignment_ms",
            t.span("kshape.assignment") * ms / fits,
            "ms",
        ),
        plain(
            "kshape.fit_self_ms",
            (t.span("kshape.fit") - t.span("kshape.refinement") - t.span("kshape.assignment")) * ms
                / fits,
            "ms",
        ),
        plain(
            "kshape.iterations",
            t.count("kshape.iterations") / fits,
            "count",
        ),
        // The server records its telemetry ring whether or not a run is
        // traced, and the benchmark reads it only after the load: the
        // trace adds nothing to the measured requests.
        plain("trace.overhead_pct", 0.0, "%"),
    ]);
    metrics
}

/// Spans and counters read back from the server's telemetry ring.
#[derive(Default)]
struct Telemetry {
    request_ns: Vec<f64>,
    spans: Vec<(String, f64)>,
    counters: Vec<(String, f64)>,
    fits: usize,
}

impl Telemetry {
    fn add(&mut self, line: &str) {
        let field = |key: &str| -> Option<&str> {
            let from = line.find(key)? + key.len();
            let rest = &line[from..];
            let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
            Some(&rest[..end])
        };
        let (Some(name), Some(kind)) = (field("\"name\":\""), field("\"type\":\"")) else {
            return;
        };
        match kind {
            "span" => {
                let ns: f64 = field("\"ns\":").and_then(|v| v.parse().ok()).unwrap_or(0.0);
                if name == "serve.request" {
                    self.request_ns.push(ns);
                }
                if name == "kshape.fit" {
                    self.fits += 1;
                }
                self.spans.push((name.to_string(), ns));
            }
            "counter" => {
                let d: f64 = field("\"delta\":")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0);
                self.counters.push((name.to_string(), d));
            }
            _ => {}
        }
    }

    fn span(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| n == name)
            .fold(0.0, |a, (_, v)| a + v)
    }

    fn count(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(n, _)| n == name)
            .fold(0.0, |a, (_, v)| a + v)
    }
}
