//! The serving side: the shipped `obf_server` binary in its own
//! process, the load drivers aimed at it, and the serve workload.
//!
//! Both drivers run one thread per connection. The closed loop sends a
//! connection's next request, or batch of pipelined requests, when the
//! previous replies arrive. The open loop follows a fixed Poisson
//! schedule at an absolute rate: a connection sends each request at its
//! scheduled time, or as soon as its previous reply arrives if that is
//! later, and every latency is timed from the scheduled send, so waiting
//! behind a slow reply counts. At the light rate it spins for the send
//! time and the reply ([`Pacing::Spin`]): a timer's oversleep was about
//! 0.09 ms per send on the reference host, most of a light-rate reply,
//! and would have counted as serving time. Generator lateness is the
//! part of a send's delay that the driver itself caused, not the wait
//! for the connection.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obf_bench::traffic::mixed_query;
use obf_datasets::{Dataset, DatasetSpec};
use obf_server::{Client, ServerState};
use obf_uncertain::{snapshot, SnapshotMeta, UncertainGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stamp::{fnv1a, FNV_OFFSET};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{layers, publish, stats, Ctx, Outcome, DATASET_SEED, SETUP_REPS};

/// Worlds per sampled statistic in the query mix.
pub const WORLDS: usize = 10;
/// World-cache capacity the server runs with.
pub const CACHE: usize = 1024;
/// Latency limit of the knee search, in milliseconds.
pub const LIMIT_MS: f64 = 10.0;
/// How long past its window a driver waits for late replies.
pub const GRACE: Duration = Duration::from_secs(2);
/// Every `VERIFY_EVERY`-th reply of a timed phase is checked against
/// the in-process answer after the phase ends.
const VERIFY_EVERY: usize = 61;
/// How long before a scheduled send the open loop stops sleeping and
/// spins: more than a sleep's usual oversleep on Linux.
const SPIN_AHEAD: Duration = Duration::from_micros(200);
/// Connections of the light-rate open loops. One is enough below a
/// tenth of capacity, and it leaves a core to the server and, on the
/// republish workload, to the republisher.
pub const LIGHT_CONNS: usize = 1;
/// The seed of the query stream every run draws from. Timed phases
/// send statistically identical work whatever `--seed` is, so that the
/// seed does not move the figures; `--seed` picks the run's slice of
/// the stream (see [`Mix::for_seed`]).
pub const MIX_SEED: u64 = DATASET_SEED;

/// A running `obf_server` process. Dropping it kills the process and
/// waits for it; [`ServerProc::stop`] asks it to shut down first.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Starts the server on `snapshot` and returns once it has answered
    /// its first `INFO`.
    pub fn start(bin: &Path, snapshot: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .arg(snapshot)
            .args(["--port", "0", "--cache", &CACHE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut proc = ServerProc {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => proc.addr = addr.to_string(),
            _ => return Err(format!("server did not report its address: {line:?}")),
        }
        let mut c = proc.client()?;
        let info = c.request("INFO").map_err(|e| format!("INFO: {e}"))?;
        if !info.starts_with("OK ") {
            return Err(format!("INFO answered {info:?}"));
        }
        Ok(proc)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&*self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// One admin request; an error or non-`OK` reply is an `Err`.
    pub fn admin(&self, line: &str) -> Result<String, String> {
        let reply = self
            .client()?
            .request(line)
            .map_err(|e| format!("{line}: {e}"))?;
        if reply.starts_with("OK") {
            Ok(reply)
        } else {
            Err(format!("{line} answered {reply:?}"))
        }
    }

    /// CPU seconds the server process has used so far (Linux
    /// `/proc/<pid>/stat`; `None` elsewhere).
    pub fn cpu_secs(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks: f64 =
            fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
        Some(ticks / 100.0)
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn stop(mut self) {
        let _ = self
            .client()
            .and_then(|mut c| c.request("SHUTDOWN").map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills what did not exit in time.
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The query classes of the mix: the verbs, with `STAT` split by
/// statistic.
pub const CLASSES: [&str; 10] = [
    "expected_degree",
    "degree_dist",
    "neighborhood",
    "expected",
    "stat_num_edges",
    "stat_avg_degree",
    "stat_max_degree",
    "stat_degree_variance",
    "stat_clustering",
    "info",
];

/// The class a query belongs to (see [`CLASSES`]).
pub fn class_of(query: &str) -> String {
    let mut parts = query.split_whitespace();
    let verb = parts.next().unwrap_or("").to_ascii_lowercase();
    match verb.as_str() {
        "stat" => format!("stat_{}", parts.next().unwrap_or("")),
        _ => verb,
    }
}

/// What a timed phase saw.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of answered requests, in ms (from scheduled send in an
    /// open loop).
    pub latencies_ms: Vec<f64>,
    /// Open loop only: (scheduled send in s, latency in ms) per answer.
    pub timed: Vec<(f64, f64)>,
    /// Open loop only: (class, actual send, reply) of answered requests,
    /// in ns since the tracer origin: the client spans.
    pub client: Vec<(String, u64, u64)>,
    /// Driver-caused send delay in ms, one per open-loop request.
    pub late_ms: Vec<f64>,
    pub unanswered: usize,
    pub drain_ms: f64,
    pub elapsed_s: f64,
    /// (query index, reply hash) samples for post-phase verification.
    pub samples: Vec<(usize, u64)>,
}

impl PhaseResult {
    fn merge(&mut self, o: PhaseResult) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.latencies_ms.extend(o.latencies_ms);
        self.timed.extend(o.timed);
        self.client.extend(o.client);
        self.late_ms.extend(o.late_ms);
        self.unanswered += o.unanswered;
        self.drain_ms = self.drain_ms.max(o.drain_ms);
        self.samples.extend(o.samples);
    }
}

/// Shape of the query stream a driver sends.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub seed: u64,
    pub n: u64,
    /// Index of the first query, so phases send disjoint slices.
    pub first: usize,
}

impl Mix {
    /// The phase at `offset` of the slice of the [`MIX_SEED`] stream
    /// that a run of `seed` sends, on a graph of `n` vertices. Slices of
    /// different seeds are disjoint.
    pub fn for_seed(seed: u64, n: u64, offset: usize) -> Self {
        let slice = (obf_graph::splitmix64(seed) >> 44) as usize;
        Mix {
            seed: MIX_SEED,
            n,
            first: (slice << 32) + offset,
        }
    }

    pub fn query(&self, i: usize) -> String {
        mixed_query(self.seed, self.first + i, WORLDS, self.n)
    }
}

fn reply_hash(reply: &str) -> u64 {
    fnv1a(FNV_OFFSET, reply.as_bytes())
}

/// Closed loop: `conns` connections, each sending batches of `depth`
/// pipelined requests back to back for `window` (`depth` 1 is one
/// request at a time). Every reply of a batch counts the batch's time.
pub fn closed_loop(
    addr: &str,
    mix: Mix,
    conns: usize,
    depth: usize,
    window: Duration,
) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(20);
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut out = PhaseResult::default();
                let Ok(mut client) = Client::connect(&*addr) else {
                    out.attempted = 1;
                    out.failed = 1;
                    return out;
                };
                sleep_until(start);
                let mut i = c;
                while start.elapsed() < window {
                    let batch: Vec<usize> = (0..depth).map(|d| i + d * conns).collect();
                    let queries: Vec<String> = batch.iter().map(|&j| mix.query(j)).collect();
                    let t0 = Instant::now();
                    out.attempted += depth as u64;
                    let replies = if depth == 1 {
                        client.request(&queries[0]).map(|r| vec![r])
                    } else {
                        let lines: Vec<&str> = queries.iter().map(String::as_str).collect();
                        client.pipeline(&lines)
                    };
                    let Ok(replies) = replies else {
                        out.failed += depth as u64;
                        break;
                    };
                    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                    for (reply, &j) in replies.iter().zip(&batch) {
                        if !reply.starts_with("OK ") {
                            out.failed += 1;
                            continue;
                        }
                        out.latencies_ms.push(latency_ms);
                        out.timed
                            .push((t0.duration_since(start).as_secs_f64(), latency_ms));
                        if j % VERIFY_EVERY == 0 {
                            out.samples.push((j, reply_hash(reply)));
                        }
                    }
                    i += conns * depth;
                }
                out
            })
        })
        .collect();
    let mut all = PhaseResult::default();
    for h in handles {
        all.merge(h.join().expect("closed-loop client thread panicked"));
    }
    all.elapsed_s = start.elapsed().as_secs_f64();
    all
}

/// The deterministic Poisson schedule of an open loop: send offsets in
/// seconds from the start.
pub fn schedule(seed: u64, rate: f64, window: Duration) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ rate.to_bits() ^ 0x09e7_100b);
    let mut out = Vec::with_capacity((rate * window.as_secs_f64()) as usize + 1);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(t);
    }
}

/// How an open-loop connection waits for a send time and a reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Sleep until shortly before each send, then spin; spin on the
    /// reply too. The client's core never sleeps while a request is out,
    /// so neither a timer's oversleep nor the client's wake-up counts as
    /// serving time. Costs up to a core per connection at the light rate.
    Spin,
    /// Sleep until each send and block on the reply: for loads beside
    /// other work, or with more connections than spare cores.
    Sleep,
}

/// Open loop at an absolute `rate` (requests per second) for `window`.
/// `origin` is the tracer's time origin, for client spans.
pub fn open_loop(
    addr: &str,
    mix: Mix,
    conns: usize,
    rate: f64,
    window: Duration,
    pacing: Pacing,
    origin: Instant,
) -> PhaseResult {
    let offsets = Arc::new(schedule(mix.seed ^ mix.first as u64, rate, window));
    let start = Instant::now() + Duration::from_millis(20);
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            let offsets = Arc::clone(&offsets);
            std::thread::spawn(move || {
                let mine: Vec<usize> = (c..offsets.len()).step_by(conns).collect();
                let mut out = PhaseResult {
                    attempted: mine.len() as u64,
                    ..PhaseResult::default()
                };
                let Ok(mut client) = Client::connect(&*addr) else {
                    out.failed = out.attempted;
                    out.unanswered = mine.len();
                    return out;
                };
                let _ = client.stream().set_read_timeout(Some(window + GRACE));
                if pacing == Pacing::Spin && client.stream().set_nonblocking(true).is_err() {
                    out.failed = out.attempted;
                    out.unanswered = mine.len();
                    return out;
                }
                sleep_until(start);
                let deadline = window + GRACE;
                let mut last_reply = Duration::ZERO;
                let mut done = 0usize;
                for &i in &mine {
                    let scheduled = Duration::from_secs_f64(offsets[i]);
                    let ready = scheduled.max(last_reply);
                    match pacing {
                        Pacing::Spin => spin_until(start + ready),
                        Pacing::Sleep => sleep_until(start + ready),
                    }
                    let sent = start.elapsed();
                    if sent > deadline {
                        break;
                    }
                    out.late_ms
                        .push(sent.saturating_sub(ready).as_secs_f64() * 1e3);
                    let q = mix.query(i);
                    let reply = match pacing {
                        Pacing::Spin => spin_request(client.stream(), &q, start + deadline),
                        Pacing::Sleep => client.request(&q),
                    };
                    let now = start.elapsed();
                    last_reply = now;
                    done += 1;
                    match reply {
                        Ok(reply) if reply.starts_with("OK ") => {
                            let latency_ms = now.saturating_sub(scheduled).as_secs_f64() * 1e3;
                            out.latencies_ms.push(latency_ms);
                            out.timed.push((offsets[i], latency_ms));
                            let span_start =
                                (start + sent).duration_since(origin).as_nanos() as u64;
                            let span_end = (start + now).duration_since(origin).as_nanos() as u64;
                            out.client.push((class_of(&q), span_start, span_end));
                            if i % VERIFY_EVERY == 0 {
                                out.samples.push((i, reply_hash(&reply)));
                            }
                        }
                        Ok(_) => out.failed += 1,
                        Err(_) => {
                            out.failed += 1;
                            break;
                        }
                    }
                }
                // Requests never sent or never answered in time.
                let missing = mine.len() - done;
                out.unanswered += missing;
                out.failed += missing as u64;
                let last_sched = mine.last().map_or(0.0, |&i| offsets[i]);
                out.drain_ms = (last_reply.as_secs_f64() - last_sched).max(0.0) * 1e3;
                out
            })
        })
        .collect();
    let mut all = PhaseResult::default();
    for h in handles {
        all.merge(h.join().expect("open-loop client thread panicked"));
    }
    all.elapsed_s = start.elapsed().as_secs_f64();
    all
}

/// One request over a nonblocking stream, read and written by spinning
/// so that the client's core stays awake while the request is out; an
/// error once `deadline` passes.
fn spin_request(stream: &TcpStream, line: &str, deadline: Instant) -> std::io::Result<String> {
    struct Spin<'a>(&'a TcpStream, Instant);
    impl Spin<'_> {
        fn retry<T>(&self, mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
            loop {
                match op() {
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() > self.1 {
                            return Err(std::io::ErrorKind::TimedOut.into());
                        }
                        std::hint::spin_loop();
                    }
                    r => return r,
                }
            }
        }
    }
    impl std::io::Read for Spin<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let s = self.0;
            self.retry(|| (&*s).read(buf))
        }
    }
    impl std::io::Write for Spin<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let s = self.0;
            self.retry(|| (&*s).write(buf))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut spin = Spin(stream, deadline);
    obf_server::write_frame(&mut spin, line)?;
    obf_server::read_frame(&mut spin)?.ok_or_else(|| std::io::ErrorKind::UnexpectedEof.into())
}

/// Waits until `t`: sleeps until [`SPIN_AHEAD`] before it, then spins,
/// so a send leaves on time rather than a timer's oversleep late.
fn spin_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now() + SPIN_AHEAD) {
        std::thread::sleep(d);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Checks the sampled replies of a phase against the in-process
/// answers of `state` (which serves the same graph); returns the number
/// of mismatches.
pub fn verify_samples(state: &ServerState, mix: Mix, samples: &[(usize, u64)]) -> usize {
    samples
        .iter()
        .filter(|&&(i, h)| reply_hash(&state.answer(&mix.query(i))) != h)
        .count()
}

/// The 64-query determinism probe answered in-process by `state`, with
/// the digest `obf_bench::traffic::probe_digest` computes over the wire.
pub fn local_probe(state: &ServerState, seed: u64, n: u64) -> String {
    let mut digest = FNV_OFFSET;
    for i in 0..64 {
        let q = mixed_query(seed, i, WORLDS, n);
        let reply = state.answer(&q);
        for part in [q.as_bytes(), b"\n", reply.as_bytes(), b"\n"] {
            digest = fnv1a(digest, part);
        }
    }
    format!("{digest:016x}")
}

/// The answers digest of the 64-query probe at [`crate::DEFAULT_SEED`].
pub const PIN_SERVE: &str = "f6ed1718c9ff44a5";
/// Length of the closed-loop block of one timed round of the serve
/// workload.
pub const CLOSED_BLOCK: Duration = Duration::from_millis(1000);
/// Requests in flight in the throughput block: one connection sends
/// batches of this many pipelined requests, so the server always has
/// work queued and client and server take one core each. At `nproc`
/// connections of one request each, three threads shared two cores and
/// every request woke the server; in the same runs on the reference
/// host that throughput varied about twice as much between runs (14%
/// against 6%) and lost 33% against 18% in a slow stretch of the host.
pub const PIPELINE_DEPTH: usize = 32;
/// Length of the single-connection closed-loop block of one timed
/// round: requests back to back on one connection, each answered with
/// nothing queued ahead of it and both cores awake.
pub const SINGLE_BLOCK: Duration = Duration::from_millis(500);
/// Length of the light open-loop block of one timed round; at the light
/// rate it holds about 1600 requests, so its p99 has 16 beyond it.
pub const LIGHT_BLOCK: Duration = Duration::from_millis(1000);
/// The closed-loop throughput is the median rate over windows of this
/// length, so one disturbed stretch moves a few windows, not the run's
/// figure.
pub const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Distance in the query stream between the rounds' blocks.
const ROUND_STRIDE: usize = 1_000_000;
/// The republish reader's `tail_ms` is the median of the p99s of time
/// windows of about this many samples, so one disturbed second (a full
/// σ search beside the reader, a neighbour's burst) moves one window,
/// not the run's figure.
pub const TAIL_WINDOW: usize = 2000;

/// `loadgen`'s published graph: the 0.05-scale dblp-like graph with an
/// edge probability in [0.2, 1) per edge. The serve workload serves it
/// at [`DATASET_SEED`], whatever the run's seed.
pub fn loadgen_graph(seed: u64, base: &obf_graph::Graph) -> UncertainGraph {
    let mut prng = SmallRng::seed_from_u64(seed ^ 0x5e4e);
    let cands: Vec<(u32, u32, f64)> = base
        .edges()
        .map(|(u, v)| (u, v, 0.2 + 0.8 * prng.gen::<f64>()))
        .collect();
    UncertainGraph::new(base.num_vertices(), cands).expect("valid candidate set")
}

/// What the timed rounds of the serve workload measured.
struct Timed {
    closed: PhaseResult,
    single: PhaseResult,
    light: PhaseResult,
    /// Closed-loop rate of each [`RATE_WINDOW`] of every closed block.
    closed_rates: Vec<f64>,
    /// Tail of each light block.
    light_tails: Vec<f64>,
    /// Sampled replies checked against the in-process answers, and how
    /// many of them differed.
    checked: usize,
    bad: usize,
}

/// The timed phases: `rounds` rounds of a [`CLOSED_BLOCK`] closed loop
/// of [`PIPELINE_DEPTH`] pipelined requests, a [`SINGLE_BLOCK`] closed
/// loop of one request at a time and a [`LIGHT_BLOCK`] open loop at the
/// light rate, all on one connection, so that every metric samples the
/// whole run rather than one stretch of it.
fn timed_rounds(
    server: &ServerProc,
    state: &ServerState,
    ctx: &Ctx,
    n: u64,
    rounds: usize,
    tr: &mut Tracer,
) -> Timed {
    let mut t = Timed {
        closed: PhaseResult::default(),
        single: PhaseResult::default(),
        light: PhaseResult::default(),
        closed_rates: Vec::new(),
        light_tails: Vec::new(),
        checked: 0,
        bad: 0,
    };
    let windows = (CLOSED_BLOCK.as_secs_f64() / RATE_WINDOW.as_secs_f64()).round() as usize;
    for r in 0..rounds {
        let closed_mix = Mix::for_seed(ctx.seed, n, 1_000 + ROUND_STRIDE * r);
        let closed = tr.span("bench.closed_loop", |_| {
            closed_loop(&server.addr, closed_mix, 1, PIPELINE_DEPTH, CLOSED_BLOCK)
        });
        let starts: Vec<f64> = closed.timed.iter().map(|t| t.0).collect();
        t.closed_rates.extend(stats::window_rates(
            &starts,
            CLOSED_BLOCK.as_secs_f64(),
            windows,
        ));
        let single_mix = Mix::for_seed(ctx.seed, n, 30_000_000 + ROUND_STRIDE * r);
        let single = tr.span("bench.single_connection", |_| {
            closed_loop(&server.addr, single_mix, 1, 1, SINGLE_BLOCK)
        });
        let light_mix = Mix::for_seed(ctx.seed, n, 50_000_000 + ROUND_STRIDE * r);
        let origin = tr.origin();
        let light = tr.span("bench.open_loop_light", |_| {
            open_loop(
                &server.addr,
                light_mix,
                LIGHT_CONNS,
                layers::LIGHT_QPS,
                LIGHT_BLOCK,
                Pacing::Spin,
                origin,
            )
        });
        if let Some(tail) = tail(&light.latencies_ms, 0.99) {
            t.light_tails.push(tail.value);
        }
        for (mix, phase) in [
            (closed_mix, &closed),
            (single_mix, &single),
            (light_mix, &light),
        ] {
            t.checked += phase.samples.len();
            t.bad += verify_samples(state, mix, &phase.samples);
        }
        t.closed.merge(closed);
        t.single.merge(single);
        t.light.merge(light);
    }
    t
}

/// Runs the serve workload: set-up, the probe digest check, the closed
/// loop, the light open loop, the sampled reply checks and, when
/// traced, the layer probes.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let path = ctx.work.join("serve.snap");
    let mut setup = Vec::new();
    let mut synth = Vec::new();
    let mut server = None;
    let mut base = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            ServerProc::stop(s);
        }
        let t = Instant::now();
        let g = tr.span("datasets.synthetic", |_| {
            DatasetSpec::synthetic(Dataset::Dblp, 1000, DATASET_SEED).graph
        });
        synth.push(t.elapsed().as_secs_f64());
        let u = loadgen_graph(DATASET_SEED, &g);
        snapshot::save_snapshot_v3_with_meta(&u, SnapshotMeta::default(), &path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        server = Some(ServerProc::start(&ctx.server_bin, &path)?);
        setup.push(t.elapsed().as_secs_f64());
        base = Some((g, u));
    }
    let server = server.expect("set up");
    let (base, served) = base.expect("set up");
    let n = served.num_vertices() as u64;

    // Output check before timing: the default seed's probe over the
    // wire against the pin (the served graph is the pinned one at every
    // seed), and the run seed's probe over the wire against the same
    // probe answered in-process.
    let (graph, _) = obf_server::load_published_graph(&path.to_string_lossy())?;
    let state = ServerState::new(Arc::new(graph), CACHE);
    let mut client = server.client()?;
    let (pinned, pin_errors) =
        obf_bench::traffic::probe_digest(&mut client, crate::DEFAULT_SEED, WORLDS, 64, n);
    let (wire, errors) = obf_bench::traffic::probe_digest(&mut client, ctx.seed, WORLDS, 64, n);
    drop(client);
    out.pin(crate::DEFAULT_SEED, &pinned, PIN_SERVE, "answers");
    let local = local_probe(&state, ctx.seed, n);
    out.digest = wire.clone();
    if wire != local || errors + pin_errors > 0 {
        out.mismatches.push(format!(
            "probe digest over the wire {wire} vs in-process {local}, {} non-OK replies",
            errors + pin_errors
        ));
    }

    let round = CLOSED_BLOCK + SINGLE_BLOCK + LIGHT_BLOCK;
    let rounds = ((ctx.seconds / round.as_secs_f64()).round() as usize).max(1);
    let timed = tr.span("bench.timed_rounds", |tr| {
        timed_rounds(&server, &state, ctx, n, rounds, tr)
    });
    if timed.bad > 0 {
        out.mismatches.push(format!(
            "{} of {} sampled replies differ from the in-process answers",
            timed.bad, timed.checked
        ));
    }
    let (closed, single, light) = (&timed.closed, &timed.single, &timed.light);
    out.attempted = 128 + closed.attempted + single.attempted + light.attempted;
    out.failed = closed.failed + single.failed + light.failed;
    let closed_rate = median(&timed.closed_rates).ok_or("no closed-loop replies")?;
    let single_p50 = median(&single.latencies_ms).ok_or("no single-connection replies")?;
    let light_p50 = median(&light.latencies_ms).ok_or("no light-rate replies")?;
    let light_p99 = median(&timed.light_tails).ok_or("too few light-rate samples")?;
    let m = &mut out.end_to_end;
    m.put("setup_s", median(&setup).expect("setups"), "s");
    m.put("throughput_per_s", closed_rate, "1/s");
    m.put("p50_ms", single_p50, "ms");
    out.layers.put("bench.tail_ms", light_p99, "ms");
    out.notes.push(format!(
        "{rounds} rounds; closed loop {closed_rate:.0} req/s with {} pipelined; \
         one at a time: p50 {single_p50:.4} ms; light {} req/s: p50 {light_p50:.4} ms, \
         p99 {light_p99:.3} ms (median of the rounds' p99s) of {} samples",
        PIPELINE_DEPTH,
        layers::LIGHT_QPS,
        light.latencies_ms.len()
    ));

    if tr.enabled() {
        // The traced repeat of the light blocks: client spans recorded.
        let origin = tr.origin();
        let open = tr.begin("bench.open_loop_light_traced");
        let mut traced = PhaseResult::default();
        for r in 0..rounds {
            let mix = Mix::for_seed(ctx.seed, n, 60_000_000 + ROUND_STRIDE * r);
            let block = open_loop(
                &server.addr,
                mix,
                LIGHT_CONNS,
                layers::LIGHT_QPS,
                LIGHT_BLOCK,
                Pacing::Spin,
                origin,
            );
            tr.absorb(
                block
                    .client
                    .iter()
                    .map(|(class, s, e)| (format!("bench.client.{class}"), *s, *e)),
            );
            traced.merge(block);
        }
        tr.end(open);
        let l = &mut out.layers;
        l.put("datasets.synth_s", median(&synth).expect("setups"), "s");
        l.put(
            "bench.latency_samples",
            timed.light.latencies_ms.len() as f64,
            "count",
        );
        let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        l.put(
            "bench.trace_overhead_share",
            p50(&traced.latencies_ms) / light_p50 - 1.0,
            "share",
        );
        let stats = server.admin("CACHE_STATS")?;
        let rate = obf_bench::traffic::field_f64(&stats, "hit_rate=").unwrap_or(f64::NAN);
        l.put("uncertain.cache_hit_rate", rate, "ratio");
        // No Algorithm 1 runs on this path: obf_core is probed on the
        // served graph's original at the republish workload's (k, ε).
        let spec = crate::republish::RepublishSpec { batches: 0 };
        let cfg = spec.harness(ctx.seed, ctx.nproc);
        let cell = publish::Cell {
            dataset: Dataset::Dblp,
            k: spec.k(),
            eps: spec.eps(),
        };
        let probe = tr.span("probe.cell", |tr| publish::run_cell(&cfg, &base, cell, tr));
        publish::core_counters(std::slice::from_ref(&probe), &mut out.layers);
        layers::layer_suite(
            ctx,
            tr,
            &mut out,
            &base,
            &probe,
            Some((&server, &path, &served)),
        )?;
    }
    server.stop();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_split_stat_and_expected() {
        assert_eq!(class_of("STAT clustering 7 123"), "stat_clustering");
        assert_eq!(class_of("EXPECTED num_edges"), "expected");
        assert_eq!(class_of("DEGREE_DIST 5"), "degree_dist");
        assert_eq!(class_of("INFO"), "info");
        for i in 0..2000 {
            let q = mixed_query(3, i, WORLDS, 100);
            assert!(CLASSES.contains(&class_of(&q).as_str()), "{q}");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_at_rate() {
        let a = schedule(7, 2000.0, Duration::from_secs(2));
        assert_eq!(a, schedule(7, 2000.0, Duration::from_secs(2)));
        assert!((a.len() as f64 - 4000.0).abs() < 4.0 * 4000f64.sqrt());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().copied().unwrap() < 2.0);
    }
}
