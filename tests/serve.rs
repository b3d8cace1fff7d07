//! Chaos acceptance suite for `tsserve` (DESIGN.md §8).
//!
//! Every injected fault — garbage HTTP bytes, truncated bodies, NaN /
//! ragged / constant series, slow-loris clients, worker panics,
//! overload bursts — must yield a typed HTTP error or a shed 503;
//! never a process panic, never a hang past the request deadline. A
//! drain must finish in-flight work, and a restart over the same
//! checkpoint directory must warm-start and serve byte-identical
//! assignments without refitting. Served assignments are the fit's own:
//! label and distance bits equal the fit's assignment sweep.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use kshape::bank::CentroidBank;
use kshape::sbd::SbdScratch;
use kshape::{KShape, KShapeConfig, KShapeOptions, SpectraEngine};
use tsdata::corrupt::{corrupt_bytes, ByteFault};
use tsdata::normalize::z_normalize;
use tsdata::store::ChannelView;
use tsrand::{Rng, StdRng};
use tsrun::RunControl;
use tsserve::loadgen::{self, http_request, parse_response, raw_exchange, request_bytes};
use tsserve::{Model, PreparedModel, ServeConfig, Server, ServerHandle};

/// Short-deadline config sized for tests; `f` tweaks the knobs.
fn boot(f: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut config = ServeConfig {
        read_deadline: Duration::from_millis(400),
        ..ServeConfig::default()
    };
    f(&mut config);
    Server::bind(config).expect("bind").spawn()
}

/// Two well-separated shape clusters: sines and spiky pulses.
fn two_cluster_body(n_per: usize, m: usize, k: usize, deadline_ms: u64) -> String {
    let mut rows = Vec::new();
    for i in 0..n_per {
        let phase = 0.2 * i as f64;
        let sine: Vec<String> = (0..m)
            .map(|t| format!("{:?}", (t as f64 * 0.3 + phase).sin()))
            .collect();
        rows.push(format!("[{}]", sine.join(",")));
        let pulse: Vec<String> = (0..m)
            .map(|t| {
                let x = if (t + i) % 8 < 2 { 3.0 } else { -0.5 };
                format!("{x:?}")
            })
            .collect();
        rows.push(format!("[{}]", pulse.join(",")));
    }
    format!(
        "{{\"series\":[{}],\"k\":{k},\"seed\":7,\"deadline_ms\":{deadline_ms}}}",
        rows.join(",")
    )
}

fn assign_body(n_per: usize, m: usize, deadline_ms: u64) -> String {
    let fit = two_cluster_body(n_per, m, 2, deadline_ms);
    // Reuse the series array, swap the trailing fields.
    let series_end = fit.rfind("],\"k\":").unwrap();
    format!("{}],\"deadline_ms\":{deadline_ms}}}", &fit[..series_end])
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A served assign runs the fit's assignment rule with the centroid as
/// SBD's `x` and the query as its `y`: on every training row its label
/// and distance bits equal the in-memory sweep over the same centroids,
/// for univariate and 3-channel models.
#[test]
fn served_assign_matches_the_fit_sweep_bit_for_bit() {
    let m = 48;
    for channels in [1usize, 3] {
        let mut rng = StdRng::seed_from_u64(11 + channels as u64);
        let rows: Vec<Vec<f64>> = (0..36)
            .map(|i| {
                (0..channels)
                    .flat_map(|ch| {
                        let phase = rng.gen_range(0.0..6.0) + ch as f64;
                        let raw: Vec<f64> = (0..m)
                            .map(|t| {
                                let x = t as f64 * 0.2 * (1 + i % 3) as f64 + phase;
                                x.sin() + rng.gen_range(-0.3..0.3)
                            })
                            .collect();
                        z_normalize(&raw)
                    })
                    .collect()
            })
            .collect();
        let cfg = KShapeConfig {
            k: 3,
            channels,
            seed: 5,
            ..KShapeConfig::default()
        };
        let fit = KShape::fit_with(&rows, &KShapeOptions::from(cfg)).expect("fit");
        let model = PreparedModel::new(Model {
            name: "pin".into(),
            k: 3,
            m,
            channels,
            rung: "kshape".into(),
            converged: fit.converged,
            iterations: fit.iterations,
            centroids: fit.centroids.clone(),
        })
        .expect("model");

        let view = ChannelView::new(&rows[..], channels).expect("view");
        let engine = SpectraEngine::from_view(&view, 1).expect("engine");
        let mut bank = CentroidBank::fixed(m, channels).expect("bank");
        bank.load(&fit.centroids).expect("centroids");
        let n = rows.len();
        let (mut labels, mut dists, mut shifts) = (vec![0; n], vec![0.0; n], vec![0; n]);
        engine
            .assign(
                &bank,
                &mut labels,
                &mut dists,
                &mut shifts,
                &RunControl::unlimited(),
            )
            .expect("unlimited control");

        let mut scratch = SbdScratch::default();
        for (i, row) in rows.iter().enumerate() {
            let (label, dist) = model.assign_one(row, &mut scratch);
            assert_eq!(label, labels[i], "channels={channels} row {i}");
            assert_eq!(
                dist.to_bits(),
                dists[i].to_bits(),
                "channels={channels} row {i}: served {dist} vs fit {}",
                dists[i]
            );
        }
    }
}

#[test]
fn fit_assign_health_round_trip() {
    let server = boot(|_| {});
    let addr = server.addr();

    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/demo/fit",
        &two_cluster_body(8, 32, 2, 10_000),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200, "fit failed: {body}");
    assert!(body.contains("\"model\":\"demo\""), "{body}");
    assert!(body.contains("\"labels\":["), "{body}");

    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/demo/assign",
        &assign_body(4, 32, 10_000),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200, "assign failed: {body}");
    assert!(body.contains("\"labels\":["), "{body}");
    assert!(body.contains("\"distances\":["), "{body}");

    let (status, body) = http_request(addr, "GET", "/v1/models", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"demo\""), "{body}");

    let (status, body) = http_request(addr, "GET", "/healthz", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = http_request(addr, "GET", "/v1/telemetry", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("serve.request"), "telemetry empty: {body}");

    let (status, _) = http_request(addr, "POST", "/admin/drain", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let summary = server.drain_and_join().unwrap();
    assert!(summary.completed >= 6, "completed {summary:?}");
    assert_eq!(summary.panics, 0);
}

#[test]
fn corrupt_request_bytes_yield_typed_errors_never_hangs() {
    let server = boot(|c| c.read_deadline = Duration::from_millis(250));
    let addr = server.addr();
    let good = request_bytes("POST", "/v1/models/x/fit", &two_cluster_body(2, 16, 2, 500));
    let mut rng = StdRng::seed_from_u64(42);

    for round in 0..8u64 {
        for kind in ByteFault::ALL {
            let mut bytes = good.clone();
            let report = corrupt_bytes(&mut bytes, kind, &mut rng);
            let sent = match kind {
                // The stall fault only marks the split point; enact it
                // by sending the prefix and going silent.
                ByteFault::MidStreamStall => bytes[..report.stall_at.unwrap()].to_vec(),
                _ => bytes,
            };
            let start = Instant::now();
            let outcome = raw_exchange(addr, &sent, Duration::from_secs(5));
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(5),
                "{kind:?} round {round}: exchange not bounded ({elapsed:?})"
            );
            if let Ok(raw) = outcome {
                if raw.is_empty() {
                    continue; // server saw nothing useful and hung up
                }
                let (status, body) = parse_response(raw).unwrap();
                assert!(
                    (400..=599).contains(&status) || status == 200,
                    "{kind:?} round {round}: status {status} body {body}"
                );
                // A fault that happens to leave the request valid (e.g.
                // a bit flip inside a numeric literal) may still be a
                // 200; anything else must be one of the typed errors.
                if status != 200 {
                    assert!(
                        body.contains("\"error\""),
                        "{kind:?}: untyped error body {body}"
                    );
                }
            }
        }
    }

    // The server survived all 32 corrupt exchanges.
    let (status, _) = http_request(addr, "GET", "/healthz", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let summary = server.drain_and_join().unwrap();
    assert_eq!(summary.panics, 0, "corrupt bytes caused a panic");
}

#[test]
fn slow_loris_is_evicted_with_408() {
    let read_deadline = Duration::from_millis(300);
    let server = boot(|c| c.read_deadline = read_deadline);
    let addr = server.addr();

    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Drip the head one byte at a time, slower than it can complete.
    for b in b"POST /v1/normalize HTTP/1.1\r\n" {
        if stream.write_all(&[*b]).is_err() {
            break; // already evicted
        }
        std::thread::sleep(Duration::from_millis(20));
        if start.elapsed() > read_deadline + read_deadline {
            break;
        }
    }
    let mut raw = Vec::new();
    let _ = std::io::Read::read_to_end(&mut stream, &mut raw);
    let elapsed = start.elapsed();
    assert!(
        elapsed < read_deadline * 2 + Duration::from_millis(500),
        "loris held a worker for {elapsed:?}"
    );
    if !raw.is_empty() {
        let (status, _) = parse_response(raw).unwrap();
        assert_eq!(status, 408, "expected slow-client eviction");
    }
    let summary = server.drain_and_join().unwrap();
    assert_eq!(summary.panics, 0);
}

#[test]
fn invalid_series_yield_422_and_bad_json_400() {
    let server = boot(|_| {});
    let addr = server.addr();

    // NaN is unrepresentable in JSON: parse error, 400.
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/m/fit",
        "{\"series\":[[NaN,1.0]],\"k\":1}",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");

    // Constant series cannot be z-normalized: typed 422.
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/m/fit",
        "{\"series\":[[1.0,1.0,1.0],[0.0,1.0,2.0]],\"k\":1}",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("invalid_input"), "{body}");

    // Ragged series: typed 422 from fit validation.
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/m/fit",
        "{\"series\":[[0.0,1.0,2.0],[0.0,1.0]],\"k\":1}",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 422, "{body}");

    // k > n: typed 422.
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/m/fit",
        "{\"series\":[[0.0,1.0,2.0]],\"k\":5}",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 422, "{body}");

    // Bad model names are rejected before any work.
    let (status, _) = http_request(
        addr,
        "POST",
        "/v1/models/no%2Fslash/fit",
        "{\"series\":[[0.0,1.0]],\"k\":1}",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 400);

    // Unknown model on assign: 404.
    let (status, _) = http_request(
        addr,
        "POST",
        "/v1/models/ghost/assign",
        "{\"series\":[[0.0,1.0]]}",
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 404);

    // Wrong method on a known path: 405.
    let (status, _) = http_request(addr, "DELETE", "/v1/models", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 405);

    let summary = server.drain_and_join().unwrap();
    assert_eq!(summary.panics, 0);
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let server = boot(|c| c.max_body_bytes = 1024);
    let addr = server.addr();
    let big = format!("{{\"series\":[[{}]],\"k\":1}}", vec!["0.5"; 2000].join(","));
    let (status, body) = http_request(addr, "POST", "/v1/normalize", &big, CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 413, "{body}");
    server.drain_and_join().unwrap();
}

#[test]
fn overload_burst_sheds_with_503_and_retry_after() {
    // One worker, tiny queue, and a read deadline long enough that an
    // idle connection pins the worker for the whole burst.
    let server = boot(|c| {
        c.workers = 1;
        c.queue_depth = 1;
        c.read_deadline = Duration::from_millis(1000);
    });
    let addr = server.addr();

    // Pin the single worker, then fill the queue, with idle
    // connections — staggered so the first is dequeued before the
    // second arrives, leaving both capacity slots occupied.
    let pin1 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(80));
    let pin2 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(80));

    let mut sheds = 0;
    for _ in 0..8 {
        if let Ok(raw) = raw_exchange(
            addr,
            &request_bytes("GET", "/healthz", ""),
            Duration::from_secs(3),
        ) {
            let text = String::from_utf8_lossy(&raw).into_owned();
            let (status, body) = parse_response(raw).unwrap();
            if status == 503 {
                sheds += 1;
                assert!(text.contains("Retry-After:"), "shed without Retry-After");
                assert!(body.contains("overloaded"), "{body}");
            }
        }
    }
    assert!(sheds >= 6, "burst was not shed (only {sheds}/8 were 503)");
    // Releasing the pins EOFs their reads; the worker frees up fast.
    drop(pin1);
    drop(pin2);

    // After the burst the server recovers and serves again.
    std::thread::sleep(Duration::from_millis(300));
    let (status, _) = http_request(addr, "GET", "/healthz", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);

    let summary = server.drain_and_join().unwrap();
    assert!(summary.shed >= 6, "{summary:?}");
    assert_eq!(summary.panics, 0);
}

#[test]
fn worker_panics_are_contained() {
    let server = boot(|c| {
        c.panic_probe = true;
        c.workers = 2;
    });
    let addr = server.addr();
    for _ in 0..5 {
        let (status, body) =
            http_request(addr, "POST", "/admin/panic", "", CLIENT_TIMEOUT).unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("internal_panic"), "{body}");
    }
    // More panics than workers: the pool must still be alive.
    let (status, body) = http_request(addr, "GET", "/healthz", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"panics\":5"), "{body}");
    let summary = server.drain_and_join().unwrap();
    assert_eq!(summary.panics, 5);
}

#[test]
fn fit_deadline_returns_typed_result_not_a_hang() {
    let server = boot(|_| {});
    let addr = server.addr();
    // A 1 ms deadline on a non-trivial fit. Two legitimate outcomes,
    // both typed and both time-bounded: a 504 with the stop reason
    // (the ladder bottomed out), or — on a fast release build — a 200
    // because the final rung finished inside the window. What is
    // *never* allowed is a hang past ~2x the deadline plus dispatch
    // overhead, or an untyped error.
    let body = two_cluster_body(30, 64, 4, 1);
    let start = Instant::now();
    let (status, resp) =
        http_request(addr, "POST", "/v1/models/rushed/fit", &body, CLIENT_TIMEOUT).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline-tripped fit took {elapsed:?}"
    );
    match status {
        504 => {
            assert!(resp.contains("\"error\":\"stopped\""), "{resp}");
            assert!(resp.contains("\"reason\":\"deadline\""), "{resp}");
        }
        200 => assert!(resp.contains("\"model\":\"rushed\""), "{resp}"),
        other => panic!("expected 504 or 200, got {other}: {resp}"),
    }

    // A generous deadline on the same data: the ladder (possibly after
    // descents) must return a model.
    let (status, resp) = http_request(
        addr,
        "POST",
        "/v1/models/ok/fit",
        &two_cluster_body(30, 64, 4, 10_000),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");
    server.drain_and_join().unwrap();
}

#[test]
fn assign_deadline_returns_partial_labels() {
    let server = boot(|_| {});
    let addr = server.addr();
    let (status, resp) = http_request(
        addr,
        "POST",
        "/v1/models/pm/fit",
        &two_cluster_body(6, 64, 2, 10_000),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");

    // 1 ms for 2000 queries of length 64: trips mid-loop.
    let (status, resp) = http_request(
        addr,
        "POST",
        "/v1/models/pm/assign",
        &assign_body(1000, 64, 1),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 504, "{resp}");
    assert!(resp.contains("\"reason\":\"deadline\""), "{resp}");
    assert!(resp.contains("\"partial_labels\":"), "{resp}");
    server.drain_and_join().unwrap();
}

#[test]
fn restart_warm_starts_byte_identical_without_refitting() {
    let dir = std::env::temp_dir().join(format!("tsserve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let queries = assign_body(5, 48, 10_000);

    let first = boot(|c| c.checkpoint_dir = Some(dir.clone()));
    let addr = first.addr();
    let (status, fit_body) = http_request(
        addr,
        "POST",
        "/v1/models/persist/fit",
        &two_cluster_body(6, 48, 2, 10_000),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200, "{fit_body}");
    let (status, assign_a) = http_request(
        addr,
        "POST",
        "/v1/models/persist/assign",
        &queries,
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200);
    let (_, model_a) = http_request(addr, "GET", "/v1/models/persist", "", CLIENT_TIMEOUT).unwrap();
    // The first server dies without drain — the atomic store at fit
    // time is the only persistence step, exactly as under `kill -9`.
    drop(first);

    let second = boot(|c| c.checkpoint_dir = Some(dir.clone()));
    let addr2 = second.addr();
    // The model is served immediately — warm start, no refit.
    let (status, model_b) =
        http_request(addr2, "GET", "/v1/models/persist", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200, "model not warm-started: {model_b}");
    assert_eq!(model_a, model_b, "model payload changed across restart");

    let (status, assign_b) = http_request(
        addr2,
        "POST",
        "/v1/models/persist/assign",
        &queries,
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        assign_a, assign_b,
        "assignments diverged across kill/restart"
    );
    second.drain_and_join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_model_artifact_is_quarantined_and_refittable() {
    let dir = std::env::temp_dir().join(format!("tsserve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A torn model file, as a kill mid-rewrite (or disk corruption)
    // would leave without the atomic store.
    std::fs::write(
        dir.join("model__broken.json"),
        "{\"name\":\"broken\",\"k\":",
    )
    .unwrap();

    let server = boot(|c| c.checkpoint_dir = Some(dir.clone()));
    let addr = server.addr();
    let (status, _) = http_request(addr, "GET", "/v1/models/broken", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 404, "corrupt model must not be served");
    assert!(
        dir.join("model__broken.json.corrupt").exists(),
        "corrupt artifact was not quarantined"
    );
    // Refit under the same name succeeds and persists a fresh artifact.
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/broken/fit",
        &two_cluster_body(4, 24, 2, 10_000),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(dir.join("model__broken.json").exists());
    server.drain_and_join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_finishes_inflight_work() {
    let server = boot(|c| c.workers = 2);
    let addr = server.addr();
    let slow_body = two_cluster_body(20, 64, 3, 5_000);
    let slow = std::thread::spawn(move || {
        http_request(
            addr,
            "POST",
            "/v1/models/inflight/fit",
            &slow_body,
            CLIENT_TIMEOUT,
        )
    });
    std::thread::sleep(Duration::from_millis(30));
    let (status, _) = http_request(addr, "POST", "/admin/drain", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);

    // The in-flight fit still gets a real response.
    let (status, body) = slow.join().unwrap().unwrap();
    assert!(
        status == 200 || status == 504,
        "in-flight request dropped during drain: {status} {body}"
    );
    let summary = server.drain_and_join().unwrap();
    assert!(summary.completed >= 2, "{summary:?}");
    assert_eq!(summary.panics, 0);

    // New connections are refused once the listener is gone.
    assert!(http_request(addr, "GET", "/healthz", "", Duration::from_millis(300)).is_err());
}

#[test]
fn loadgen_reports_consistent_totals() {
    let server = boot(|_| {});
    let addr = server.addr();
    let report = loadgen::drive(&loadgen::LoadSpec {
        addr,
        clients: 4,
        requests_per_client: 10,
        method: "GET".into(),
        path: "/healthz".into(),
        body: String::new(),
        timeout: CLIENT_TIMEOUT,
    });
    assert_eq!(report.total(), 40);
    assert_eq!(report.ok, 40, "{report:?}");
    assert_eq!(report.latencies_ns.len(), 40);
    assert!(report.throughput_rps() > 0.0);
    let summary = server.drain_and_join().unwrap();
    assert!(summary.completed >= 40);
}

/// Drains `server` on a helper thread and fails, rather than hangs,
/// when the accept loop does not exit within `limit` — a lost drain
/// wake would otherwise block in `accept` forever.
fn drain_within(server: ServerHandle, limit: Duration) -> tsserve::ServeSummary {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.drain_and_join());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("server did not drain within {limit:?}"))
        .expect("drain")
}

/// An idle server bound to `bind` drains within 1 s through
/// `POST /admin/drain` and through `drain_and_join`, and the drain's
/// wake connection appears in no counter.
fn idle_drain_is_prompt_and_uncounted(bind: &str) {
    let limit = Duration::from_secs(1);
    let client_addr = |server: &ServerHandle| {
        std::net::SocketAddr::new(std::net::Ipv4Addr::LOCALHOST.into(), server.addr().port())
    };

    // Through the admin route: one health check, then the drain request.
    let server = boot(|c| c.addr = bind.to_string());
    let addr = client_addr(&server);
    let (status, _) = http_request(addr, "GET", "/healthz", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    // Let the server sit idle in `accept` before the drain arrives.
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    let (status, _) = http_request(addr, "POST", "/admin/drain", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let summary = drain_within(server, limit);
    assert!(
        start.elapsed() < limit,
        "admin drain took {:?}",
        start.elapsed()
    );
    assert_eq!(summary.accepted, 2, "{summary:?}");
    assert_eq!(summary.completed, 2, "{summary:?}");
    assert_eq!(summary.shed, 0, "{summary:?}");
    assert_eq!(summary.errors, 0, "{summary:?}");

    // Through the handle, with no request at all.
    let server = boot(|c| c.addr = bind.to_string());
    let state = server.state();
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    let summary = drain_within(server, limit);
    assert!(
        start.elapsed() < limit,
        "handle drain took {:?}",
        start.elapsed()
    );
    assert_eq!(summary.accepted, 0, "{summary:?}");
    assert_eq!(summary.completed, 0, "{summary:?}");
    assert_eq!(summary.shed, 0, "{summary:?}");
    // The counters `/healthz` reports are the same gate.
    let health = state.gate.snapshot_json();
    assert!(
        health.contains("\"accepted\":0,\"completed\":0,\"inflight\":0,\"shed\":0"),
        "{health}"
    );
}

#[test]
fn idle_loopback_server_drains_promptly() {
    idle_drain_is_prompt_and_uncounted("127.0.0.1:0");
}

#[test]
fn idle_wildcard_server_drains_promptly() {
    idle_drain_is_prompt_and_uncounted("0.0.0.0:0");
}

#[test]
fn queue_wait_is_recorded_per_request() {
    let server = boot(|_| {});
    let addr = server.addr();
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/models/qw/fit",
        &two_cluster_body(4, 32, 2, 10_000),
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let assigns = 5;
    for _ in 0..assigns {
        let (status, body) = http_request(
            addr,
            "POST",
            "/v1/models/qw/assign",
            &assign_body(2, 32, 10_000),
            CLIENT_TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
    }

    let (status, lines) = http_request(addr, "GET", "/v1/telemetry", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let spans = |name: &str| -> Vec<&str> {
        let key = format!("\"name\":\"{name}\"");
        lines.lines().filter(|l| l.contains(&key)).collect()
    };
    let waits = spans("serve.queue_wait");
    // One per request before the telemetry read: the fit and the assigns.
    assert_eq!(waits.len(), assigns + 1, "{lines}");
    assert_eq!(waits.len(), spans("serve.request").len(), "{lines}");
    for line in waits {
        tsobs::validate_event_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(line.contains("\"type\":\"span\""), "{line}");
    }
    server.drain_and_join().unwrap();
}
