//! `daemon-warm`: an in-process `semred` over an answer log that set-up
//! warms, serving closed-loop `SCAN` requests from two client connections,
//! each on a tenant of its own.
//!
//! It is the only workload that runs through the daemon's protocol,
//! server, pattern cache and tenant sessions, and it is the read side of
//! the answer log: every question is answered from the replayed store, so
//! the backend must see none.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use semre::workloads::rng::StdRng;
use semre::workloads::Workbench;
use semre::{Oracle, PersistentAnswerStore, SemRegex, SharedSession, SimLlmOracle};
use semre_daemon::{DaemonClient, Server, ServerConfig, ServerHandle};

use crate::common::{
    floor, median, median_time, peak_rss_mb, quantile, ratio, secs, Args, Calibration, Report,
    RunDir,
};

/// Lines per corpus (spam and Java), and lines per `SCAN` payload: 1250
/// requests, so that 12 of them lie beyond `p99_ms`.
const LINES: usize = 4000;
const SLICE_LINES: usize = 16;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const SPEC: &str = "sim-llm";
/// The Table 1 benchmarks whose oracle is the simulated LLM, with how
/// many times each of their slices is in the request list.  Requests
/// under `pass` and `spam,2` take about 0.1 ms, under `id` about 0.4 ms
/// and under `spam,1` about 2.5 ms; with equal weights the median would
/// fall in the gap between the two cheap patterns and `id`, where it
/// swings with the mix.  Doubling `id` puts it inside `id`'s mode.
const PATTERNS: [(&str, usize); 4] = [("pass", 1), ("id", 2), ("spam,1", 1), ("spam,2", 1)];
/// Server start-ups timed for `setup_s`.
const SETUP_ROUNDS: usize = 7;
const PROBE_ROUNDS: usize = 5;
const PINGS: usize = 200;

struct Request {
    pattern: usize,
    payload: Vec<u8>,
    lines: u64,
    /// The matching lines, as an in-process scan of the payload prints them.
    expected: Vec<u8>,
}

/// The matching lines of `payload`, newline-terminated, as a `SCAN` reply
/// carries them.
fn scan_in_process(re: &SemRegex, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for verdict in re.scan_reader(payload) {
        let verdict = verdict.expect("in-memory reads cannot fail");
        if verdict.matched {
            out.extend_from_slice(&verdict.bytes);
            out.push(b'\n');
        }
    }
    out
}

/// The pattern texts, their in-process handles, and the requests of one
/// run in a seeded order.
fn generate(seed: u64) -> (Vec<String>, Vec<SemRegex>, Vec<Request>) {
    let workbench = Workbench::generate(seed, LINES, LINES);
    let mut patterns = Vec::new();
    let mut handles = Vec::new();
    let mut requests = Vec::new();
    for (index, &(name, weight)) in PATTERNS.iter().enumerate() {
        let spec = workbench.benchmark(name).expect("a Table 1 benchmark");
        let pattern = spec.semre.to_string();
        // Answers shared across the slices, as the daemon's tenant
        // sessions share them, so that once warm the in-process scans
        // answer from memory as warm requests do.
        let session: Arc<dyn Oracle> = Arc::new(SharedSession::new(Arc::new(SimLlmOracle::new())));
        let re = SemRegex::new_shared(&pattern, session).expect("Table 1 SemREs compile");
        for slice in workbench.corpus(spec.dataset).lines().chunks(SLICE_LINES) {
            let payload: Vec<u8> = slice
                .iter()
                .flat_map(|l| [l.as_bytes(), b"\n"].concat())
                .collect();
            let expected = scan_in_process(&re, &payload);
            for _ in 0..weight {
                requests.push(Request {
                    pattern: index,
                    lines: slice.len() as u64,
                    payload: payload.clone(),
                    expected: expected.clone(),
                });
            }
        }
        patterns.push(pattern);
        handles.push(re);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_da3e);
    for i in (1..requests.len()).rev() {
        requests.swap(i, rng.gen_range(0..i + 1));
    }
    (patterns, handles, requests)
}

fn start(log: &Path) -> std::io::Result<ServerHandle> {
    Server::bind(ServerConfig {
        workers: WORKERS,
        answer_log: Some(log.to_path_buf()),
        ..ServerConfig::default()
    })?
    .spawn()
}

/// Client connections, each with its handles of the compiled patterns.
type Connections = Vec<(DaemonClient, Vec<u64>)>;

/// A connection on tenant `tenant` with every pattern compiled.
fn connect(
    handle: &ServerHandle,
    tenant: &str,
    patterns: &[String],
) -> std::io::Result<(DaemonClient, Vec<u64>)> {
    let mut client = DaemonClient::connect(handle.addr)?;
    client.tenant(tenant)?;
    let handles = patterns
        .iter()
        .map(|p| client.compile(SPEC, p))
        .collect::<std::io::Result<Vec<u64>>>()?;
    Ok((client, handles))
}

/// Stops the server and waits for it.  Every connection is closed first:
/// a worker serving an open connection would keep the server from joining.
fn stop(handle: ServerHandle, mut clients: Connections) -> std::io::Result<()> {
    clients[0].0.shutdown()?;
    drop(clients);
    handle.join()
}

/// One timed request: its index and its latency.
struct Span {
    request: usize,
    latency_s: f64,
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let (patterns, in_process, requests) = generate(args.seed);
    let dir = RunDir::create("daemon").map_err(io("cannot create a run directory"))?;
    let log: PathBuf = dir.path().join("answers.log");

    // Warm the answer log: every request once, through the daemon.
    let server = start(&log).map_err(io("start"))?;
    let (mut warm, handles) = connect(&server, "warm", &patterns).map_err(io("connect"))?;
    for (i, request) in requests.iter().enumerate() {
        let scanned = warm.scan(handles[request.pattern], &request.payload);
        report.checks.check(
            scanned
                .as_ref()
                .is_ok_and(|s| s.payload == request.expected),
            || format!("warm-up request {i}: payload differs from the in-process scan"),
        );
    }
    stop(server, vec![(warm, handles)]).map_err(io("stop"))?;

    if args.trace {
        let mut replayed = (0.0, 0.0);
        let replay_s = median_time(PROBE_ROUNDS, || {
            let store = PersistentAnswerStore::open(&log).expect("the warmed log opens");
            replayed = (store.replay_report().live as f64, store.file_bytes() as f64);
        });
        report.set("oracle.persist.replay_ms", replay_s * 1e3);
        report.set("oracle.persist.replayed", replayed.0);
        report.set("oracle.persist.log_bytes", replayed.1);
    }

    // Set-up: bind (which replays the log), connect, and compile on every
    // connection.  The first start-up serves the load; the others follow
    // it, so the memory they leave behind does not count in `peak_rss_mb`.
    let start_up = || -> Result<(ServerHandle, Connections, f64), String> {
        let started = Instant::now();
        let server = start(&log).map_err(io("start"))?;
        let clients = (0..CLIENTS)
            .map(|c| connect(&server, &format!("t{c}"), &patterns))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(io("connect"))?;
        Ok((server, clients, secs(started.elapsed())))
    };
    let mut calibration = Calibration::new();
    calibration.sample();
    let (server, mut clients, first_setup_s) = start_up()?;

    // Closed loop: each client sends its next request when the previous
    // reply is in, for `seconds` and at least `min_requests` requests.
    // Returns every request's span.
    let load = |clients: &mut [(DaemonClient, Vec<u64>)],
                seconds: f64,
                min_requests: usize,
                read_stats: bool,
                report: &mut Report|
     -> Vec<Span> {
        let started = Instant::now();
        let deadline = started + std::time::Duration::from_secs_f64(seconds);
        let per_client: Vec<(Vec<Span>, Vec<String>)> = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, (client, handles))| {
                    let requests = &requests;
                    s.spawn(move || {
                        let mut spans = Vec::new();
                        let mut errors = Vec::new();
                        let mut next = c * requests.len() / CLIENTS;
                        while spans.len() < min_requests || Instant::now() < deadline {
                            let i = next % requests.len();
                            let request = &requests[i];
                            let sent = Instant::now();
                            let scanned = client.scan(handles[request.pattern], &request.payload);
                            let latency_s = secs(sent.elapsed());
                            match scanned {
                                Ok(s)
                                    if s.payload == request.expected
                                        && s.lines == request.lines => {}
                                Ok(_) => errors.push(format!(
                                    "request {i}: payload differs from the in-process scan"
                                )),
                                Err(e) => errors.push(format!("request {i}: {e}")),
                            }
                            spans.push(Span {
                                request: i,
                                latency_s,
                            });
                            if read_stats {
                                if let Err(e) = client.stats() {
                                    errors.push(format!("STATS after request {i}: {e}"));
                                }
                            }
                            next += 1;
                        }
                        (spans, errors)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a load thread panicked"))
                .collect()
        });
        let mut all = Vec::new();
        for (spans, errors) in per_client {
            report
                .checks
                .record(spans.len() as u64, errors.len() as u64, || {
                    errors.join("; ")
                });
            all.extend(spans);
        }
        all
    };

    // Untimed: every client sends every request once, so the server's
    // lazy DFA caches and scratch buffers are warm before timing.
    load(&mut clients, 0.0, requests.len(), false, report);
    if args.trace {
        // Untraced and traced halves: the traced half reads the server's
        // counters with a `STATS` after every request (outside the
        // request's time).  The time the same payloads take in process
        // gives the server's share of a request.
        let untraced = load(&mut clients, args.seconds / 2.0, 2, false, report);
        let traced = load(&mut clients, args.seconds / 2.0, 2, true, report);
        let latency =
            |spans: &[Span]| median(&spans.iter().map(|s| s.latency_s).collect::<Vec<_>>());
        report.set(
            "trace.overhead_frac",
            latency(&traced) / latency(&untraced) - 1.0,
        );
        // Per request, the share of its time not spent scanning the
        // payload, against an in-process scan timed right after the load
        // (the host's speed drifts, so the two are taken close together);
        // the median over requests, since a sum would follow the slowest.
        let scan_s: Vec<f64> = requests
            .iter()
            .map(|r| {
                median_time(3, || {
                    drop(black_box(scan_in_process(
                        &in_process[r.pattern],
                        &r.payload,
                    )))
                })
            })
            .collect();
        let in_process_share: Vec<f64> = traced
            .iter()
            .map(|s| ratio(scan_s[s.request], s.latency_s))
            .collect();
        report.set(
            "daemon.server_overhead_share",
            1.0 - median(&in_process_share),
        );
        let client = &mut clients[0];
        let ping_s = median_time(PINGS, || client.0.ping().expect("PING is answered"));
        report.set("daemon.ping_us", ping_s * 1e6);
        let compile_s = median_time(PROBE_ROUNDS, || {
            for pattern in &patterns {
                black_box(
                    client
                        .0
                        .compile(SPEC, pattern)
                        .expect("COMPILE is answered"),
                );
            }
        });
        report.set("daemon.compile_us", compile_s * 1e6 / patterns.len() as f64);
    } else {
        // Latency: each request's fastest repetition, then quantiles over
        // requests.  Throughput: the rate the connections sustain when
        // every request takes its fastest time, CLIENTS × payload lines ÷
        // the sum of the fastest latencies; the measured rate of the best
        // second swung by 1.5× between runs whose latencies agreed, as two
        // busy workers on two vCPUs need both to be quiet at once.  The
        // requests run on the server's worker threads, which the host can
        // slow differently from the thread that times the calibration
        // kernel, so these figures are not scaled.
        let mut per_request = vec![Vec::new(); requests.len()];
        for span in load(&mut clients, args.seconds, 2, false, report) {
            per_request[span.request].push(span.latency_s);
        }
        let (mut lines, mut fastest_ms) = (0, Vec::new());
        for (request, samples) in requests.iter().zip(&per_request) {
            if !samples.is_empty() {
                lines += request.lines;
                fastest_ms.push(floor(samples) * 1e3);
            }
        }
        report.set(
            "lines_per_s",
            CLIENTS as f64 * lines as f64 * 1e3 / fastest_ms.iter().sum::<f64>(),
        );
        report.set("p50_ms", quantile(&fastest_ms, 0.5));
        report.set("p99_ms", quantile(&fastest_ms, 0.99));
        // Read after the load: the server's memory settles only under it.
        report.set("peak_rss_mb", peak_rss_mb());
    }

    let stats = clients[0].0.stats().map_err(io("STATS"))?;
    check_stats(&stats, report);
    stop(server, clients).map_err(io("stop"))?;

    let mut setup_s = vec![first_setup_s];
    while setup_s.len() < SETUP_ROUNDS {
        calibration.sample();
        let (server, clients, elapsed) = start_up()?;
        setup_s.push(elapsed);
        stop(server, clients).map_err(io("stop"))?;
    }
    if !args.trace {
        report.set("setup_s", calibration.scale(median(&setup_s)));
    }
    Ok(())
}

/// Reads the counters out of `STATS`; a warm tenant that reached the
/// backend is a failure.
fn check_stats(stats: &str, report: &mut Report) {
    let lines: Vec<String> = stats.lines().map(str::to_owned).collect();
    let field = |prefix: &str, key: &str| crate::common::stat_field(&lines, prefix, key);
    let mut persisted_hits = 0.0;
    for c in 0..CLIENTS {
        let tenant = format!("tenant t{c}:");
        let backend_keys = field(&tenant, "backend_keys");
        report.checks.check(backend_keys == Some(0.0), || {
            format!("{tenant} backend_keys={backend_keys:?}, but every answer was persisted")
        });
        persisted_hits += field(&tenant, "persisted_hits").unwrap_or(0.0);
    }
    report.set("daemon.tenant.persisted_hits", persisted_hits);
    report.set(
        "daemon.cache.hits",
        field("requests=", "cache_hits").unwrap_or(0.0),
    );
}
