//! Per-layer probes for the traced run. Each probe times calls into one
//! crate's public functions, on the inputs of the workload being
//! traced, inside spans; the per-layer metrics are aggregates of those
//! spans.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use obf_core::{
    fastpath::{run_budgeted, MemoizedAdversary},
    generate_obfuscation, CommonnessScores, DegreeProfile, DegreeProperty, ObfuscationParams,
    VertexProperty,
};
use obf_evolve::{DeltaLog, EvolveParams, Republisher};
use obf_graph::{Graph, Parallelism};
use obf_server::ServerState;
use obf_uncertain::{snapshot, MappedSnapshot, SnapshotMeta, UncertainGraph, WorldCache};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use obf_datasets::{Dataset, DatasetSpec};

use crate::publish::CellRun;
use crate::serve::{self, Mix, ServerProc, CLASSES};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Outcome, DATASET_SEED};

/// The σ search's default headroom in the `republish` bin.
pub const HEADROOM: f64 = 2.5;

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Up to `k` values spread evenly over `values`, ends included.
fn spread_pick(values: &[f64], k: usize) -> Vec<f64> {
    if values.len() <= k {
        return values.to_vec();
    }
    (0..k)
        .map(|i| values[i * (values.len() - 1) / (k - 1).max(1)])
        .collect()
}

/// `graph.par_call_us`: one `map_chunks` call with trivial work at
/// `threads` threads.
pub fn graph_probe(tr: &mut Tracer, threads: usize, m: &mut Metrics) {
    let par = Parallelism::new(threads);
    let len = par.chunk_size() * threads.max(2);
    for _ in 0..2000 {
        let out = tr.span("graph.map_chunks", |_| par.map_chunks(len, |r| r.len()));
        std::hint::black_box(out);
    }
    m.put(
        "graph.par_call_us",
        med(&tr.durations_us("graph.map_chunks")),
        "us",
    );
}

/// The `obf_core` probes on one cell: `g` with `params`, the σ values
/// its search tried, and the graph it published. The check runs at
/// `nproc` threads and at one, whatever threads the cell used.
pub fn core_probe(
    tr: &mut Tracer,
    nproc: usize,
    g: &Graph,
    params: &ObfuscationParams,
    trajectory: &[f64],
    published: &UncertainGraph,
    m: &mut Metrics,
) {
    let sigmas = spread_pick(trajectory, 4);
    let mut rng = SmallRng::seed_from_u64(params.seed);
    for &sigma in &sigmas {
        let out = tr.span("core.generate_obfuscation", |_| {
            generate_obfuscation(g, params, sigma, &mut rng)
        });
        std::hint::black_box(out);
    }
    let per_vertex = DegreeProperty.values(g);
    for &sigma in &sigmas {
        for _ in 0..10 {
            let out = tr.span("core.commonness", |_| {
                let scores = CommonnessScores::compute(g, &DegreeProperty, sigma.max(1e-300));
                scores.vertex_uniqueness(&per_vertex)
            });
            std::hint::black_box(out);
        }
    }
    let profile = DegreeProfile::new(g);
    let parallel = Parallelism::new(nproc);
    let sequential = Parallelism::sequential();
    for (name, par) in [("core.check", &parallel), ("core.check_1t", &sequential)] {
        for _ in 0..5 {
            let verdict = tr.span(name, |_| {
                let mut adv =
                    MemoizedAdversary::new(published, params.method, profile.max_degree(), par);
                run_budgeted(&profile, &mut adv, params.k, params.eps, true, par)
            });
            std::hint::black_box(verdict);
        }
    }
    let candidates = published.candidates().to_vec();
    for _ in 0..5 {
        let c = candidates.clone();
        let built = tr.span("uncertain.build", |_| {
            UncertainGraph::new(published.num_vertices(), c)
        });
        std::hint::black_box(built.expect("a published candidate set rebuilds"));
    }
    let generate_ms = med(&tr.durations_us("core.generate_obfuscation")) / 1e3;
    let commonness_us = med(&tr.durations_us("core.commonness"));
    let check_ms = med(&tr.durations_us("core.check")) / 1e3;
    let check_1t_ms = med(&tr.durations_us("core.check_1t")) / 1e3;
    let build_ms = med(&tr.durations_us("uncertain.build")) / 1e3;
    m.put("core.generate_ms", generate_ms, "ms");
    m.put("core.commonness_us", commonness_us, "us");
    m.put("core.check_ms", check_ms, "ms");
    m.put("core.check_1t_ms", check_1t_ms, "ms");
    m.put("core.check_speedup", check_1t_ms / check_ms, "ratio");
    // What the public calls above do not cover: candidate selection and
    // the truncated-normal draw of each trial (private to obf_core).
    let covered = commonness_us / 1e3 + params.t as f64 * (build_ms + check_ms);
    m.put(
        "core.select_noise_ms",
        (generate_ms - covered).max(0.0),
        "ms",
    );
    m.put("uncertain.build_ms", build_ms, "ms");
}

/// The `obf_uncertain` probes on a published graph: snapshot write,
/// the three open paths, sampling and the world cache.
pub fn uncertain_probe(
    tr: &mut Tracer,
    u: &UncertainGraph,
    work: &Path,
    seed: u64,
    m: &mut Metrics,
) {
    let path = work.join("probe.snap");
    for _ in 0..5 {
        tr.span("uncertain.save_snapshot_v3", |_| {
            snapshot::save_snapshot_v3_with_meta(u, SnapshotMeta::default(), &path)
        })
        .expect("write probe snapshot");
    }
    for _ in 0..20 {
        let s = tr.span("uncertain.open", |_| MappedSnapshot::open(&path));
        std::hint::black_box(s.expect("open probe snapshot"));
    }
    for _ in 0..5 {
        let s = tr.span("uncertain.open_verified", |_| {
            MappedSnapshot::open_verified(&path)
        });
        std::hint::black_box(s.expect("verify probe snapshot"));
    }
    let bytes = std::fs::read(&path).expect("read probe snapshot");
    for _ in 0..5 {
        let g = tr.span("uncertain.decode", |_| snapshot::decode_snapshot(&bytes));
        std::hint::black_box(g.expect("decode probe snapshot"));
    }
    for i in 0..30 {
        let w = tr.span("uncertain.sample_world", |_| {
            obf_uncertain::sample_indexed_world(u, seed, i)
        });
        std::hint::black_box(w);
    }
    let cache = WorldCache::new(Arc::new(u.clone()), 64);
    for i in 0..30 {
        std::hint::black_box(tr.span("uncertain.cache_miss", |_| cache.get_or_sample(seed ^ 1, i)));
    }
    for i in 0..30 {
        std::hint::black_box(tr.span("uncertain.cache_hit", |_| cache.get_or_sample(seed ^ 1, i)));
    }
    let ms = |tr: &Tracer, name| med(&tr.durations_us(name)) / 1e3;
    m.put(
        "uncertain.snapshot_write_ms",
        ms(tr, "uncertain.save_snapshot_v3"),
        "ms",
    );
    m.put("uncertain.open_ms", ms(tr, "uncertain.open"), "ms");
    m.put(
        "uncertain.open_verified_ms",
        ms(tr, "uncertain.open_verified"),
        "ms",
    );
    m.put("uncertain.decode_ms", ms(tr, "uncertain.decode"), "ms");
    m.put(
        "uncertain.sample_world_us",
        med(&tr.durations_us("uncertain.sample_world")),
        "us",
    );
    m.put(
        "uncertain.cache_miss_us",
        med(&tr.durations_us("uncertain.cache_miss")),
        "us",
    );
    m.put(
        "uncertain.cache_hit_us",
        med(&tr.durations_us("uncertain.cache_hit")),
        "us",
    );
}

/// Requests of the in-process answer probe: enough that every class,
/// the rarest at 2% of the mix, has a p99 with ten samples beyond it.
const ANSWER_REQUESTS: usize = 60_000;

/// `server.answer_us.<class>`: `ServerState::answer` in-process over
/// the query mix on `u`. Returns the median answer time over all
/// requests, in µs.
pub fn answer_probe(tr: &mut Tracer, u: &UncertainGraph, mix: Mix, m: &mut Metrics) -> f64 {
    let state = ServerState::new(Arc::new(u.clone()), serve::CACHE);
    let mut all = Vec::with_capacity(ANSWER_REQUESTS);
    for i in 0..ANSWER_REQUESTS {
        let q = mix.query(i);
        let name = format!("server.answer.{}", serve::class_of(&q));
        let reply = tr.span(&name, |_| state.answer(&q));
        std::hint::black_box(reply);
    }
    for class in CLASSES {
        let d = tr.durations_us(&format!("server.answer.{class}"));
        all.extend_from_slice(&d);
        m.put(&format!("server.answer_us.{class}.p50"), med(&d), "us");
        let p99 = tail(&d, 0.99).map_or(f64::NAN, |t| t.value);
        m.put(&format!("server.answer_us.{class}.p99"), p99, "us");
    }
    med(&all)
}

/// The `obf_evolve` probe for workloads without a delta stream: a
/// five-batch dblp-like stream at n = 1000 through the republisher.
pub fn evolve_probe(tr: &mut Tracer, seed: u64, threads: usize, m: &mut Metrics) {
    let spec = crate::republish::RepublishSpec { batches: 5 };
    let cfg = spec.harness(seed, threads);
    let data = spec.dataset();
    let log = DeltaLog::new(data.base.num_vertices(), data.batches.clone()).expect("valid log");
    let params = EvolveParams::new(cfg.obf_params(spec.k(), spec.eps())).with_headroom(HEADROOM);
    let (mut rep, _) = Republisher::publish(data.base.clone(), params).expect("base publish");
    let mut reports = Vec::new();
    for batch in log.batches() {
        reports.push(
            tr.span("evolve.republish", |_| rep.republish(batch))
                .expect("republish"),
        );
    }
    evolve_metrics(tr, &reports, m);
}

pub fn evolve_metrics(tr: &Tracer, reports: &[obf_evolve::RepublishReport], m: &mut Metrics) {
    let rows: usize = reports.iter().map(|r| r.rows_recomputed).sum();
    let total: usize = reports.iter().map(|r| r.rows_total).sum();
    m.put(
        "evolve.republish_ms",
        med(&tr.durations_us("evolve.republish")) / 1e3,
        "ms",
    );
    m.put(
        "evolve.rows_recomputed_share",
        rows as f64 / total.max(1) as f64,
        "share",
    );
    let fallbacks = reports.iter().filter(|r| !r.incremental).count();
    m.put("evolve.fallback_batches", fallbacks as f64, "count");
}

/// Fixed absolute offered rates of the open loops, in requests per
/// second: about 10% and 50% of the closed-loop capacity the serve
/// workload measured on the seed commit (2 cores).
pub const LIGHT_QPS: f64 = 1_600.0;
pub const BUSY_QPS: f64 = 8_000.0;

/// The serving-layer probe against a running server: a closed loop
/// with the server's CPU use, the light and busy open loops with client
/// spans, the knee search, reloads of the snapshot `reload` names (if
/// any), and the server's own counters.
pub fn server_probe(
    tr: &mut Tracer,
    server: &ServerProc,
    mix: Mix,
    conns: usize,
    answer_p50_us: f64,
    reload: Option<&Path>,
    m: &mut Metrics,
) -> Result<(), String> {
    let cpu0 = server.cpu_secs();
    let closed = tr.span("bench.closed_loop", |_| {
        serve::closed_loop(&server.addr, mix, conns, 1, Duration::from_secs(1))
    });
    let busy_share = match (cpu0, server.cpu_secs()) {
        (Some(a), Some(b)) => (b - a) / closed.elapsed_s,
        _ => f64::NAN,
    };
    m.put("server.loop_busy_share", busy_share, "share");

    let origin = tr.origin();
    let light_mix = Mix {
        first: mix.first + 10_000_000,
        ..mix
    };
    let open = tr.begin("bench.open_loop_light");
    let light = serve::open_loop(
        &server.addr,
        light_mix,
        serve::LIGHT_CONNS,
        LIGHT_QPS,
        Duration::from_secs(3),
        serve::Pacing::Spin,
        origin,
    );
    tr.absorb(
        light
            .client
            .iter()
            .map(|(class, s, e)| (format!("server.client.{class}"), *s, *e)),
    );
    tr.end(open);
    m.put("bench.light_p50_ms", med(&light.latencies_ms), "ms");
    let mut client_all = Vec::new();
    for class in CLASSES {
        let d = tr.durations_us(&format!("server.client.{class}"));
        client_all.extend_from_slice(&d);
        m.put(&format!("server.client_us.{class}.p50"), med(&d), "us");
    }
    m.put(
        "server.unattributed_us",
        med(&client_all) - answer_p50_us,
        "us",
    );

    let busy_mix = Mix {
        first: mix.first + 20_000_000,
        ..mix
    };
    let busy_window = Duration::from_secs(2);
    let busy = tr.span("bench.open_loop_busy", |_| {
        serve::open_loop(
            &server.addr,
            busy_mix,
            conns,
            BUSY_QPS,
            busy_window,
            serve::Pacing::Sleep,
            origin,
        )
    });
    // Past capacity a request can go unanswered: it missed every limit,
    // and counts at the longest wait the driver allows.
    let mut busy_ms = busy.latencies_ms.clone();
    let longest_ms = (busy_window + serve::GRACE).as_secs_f64() * 1e3;
    busy_ms.extend(std::iter::repeat_n(longest_ms, busy.failed as usize));
    m.put(
        "bench.busy_p99_ms",
        tail(&busy_ms, 0.99).map_or(f64::NAN, |t| t.value),
        "ms",
    );
    let mut late = light.late_ms.clone();
    late.extend_from_slice(&busy.late_ms);
    m.put(
        "bench.gen_late_ms",
        tail(&late, 0.99).map_or(f64::NAN, |t| t.value),
        "ms",
    );

    let mut point = 0u64;
    let knee = tr.span("bench.knee_search", |_| {
        crate::stats::find_knee(LIGHT_QPS, 1.5, 200_000.0, 5, serve::LIMIT_MS, |rate| {
            point += 1;
            let pm = Mix {
                first: mix.first + 30_000_000 + 1_000_000 * point as usize,
                ..mix
            };
            let r = serve::open_loop(
                &server.addr,
                pm,
                conns,
                rate,
                Duration::from_millis(800),
                serve::Pacing::Sleep,
                origin,
            );
            std::thread::sleep(Duration::from_millis(50));
            crate::stats::LoadPoint {
                tail_ms: if r.failed > 0 {
                    f64::INFINITY
                } else {
                    tail(&r.latencies_ms, 0.99).map_or(f64::INFINITY, |t| t.value)
                },
                unanswered: r.unanswered,
                drain_ms: r.drain_ms,
            }
        })
    });
    m.put("bench.knee_qps", knee.unwrap_or(0.0), "1/s");

    if let Some(snapshot) = reload {
        for _ in 0..5 {
            tr.span("server.reload", |_| {
                server.admin(&format!("RELOAD {}", snapshot.display()))
            })?;
        }
        m.put(
            "server.reload_ms",
            med(&tr.durations_us("server.reload")) / 1e3,
            "ms",
        );
    }
    server_counters(server, m)?;
    // Below capacity nothing may fail; the busy rate may be past it.
    let failed = closed.failed + light.failed;
    if failed > 0 {
        return Err(format!("{failed} requests of the serving probe failed"));
    }
    Ok(())
}

/// `server.protocol_errors` and `server.busy_rejections`, scraped.
pub fn server_counters(server: &ServerProc, m: &mut Metrics) -> Result<(), String> {
    let stats = server.admin("SERVER_STATS")?;
    let field = |key| obf_bench::traffic::field_f64(&stats, key).unwrap_or(f64::NAN);
    m.put("server.protocol_errors", field("protocol_errors="), "count");
    m.put("server.busy_rejections", field("busy_rejections="), "count");
    Ok(())
}

/// The per-layer probes every traced run makes, on the workload's own
/// inputs: `g` and the cell `probe` that published from it, and the
/// running server with its snapshot and graph when the workload has
/// one.
pub fn layer_suite(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
    g: &obf_graph::Graph,
    probe: &CellRun,
    server: Option<(&ServerProc, &Path, &UncertainGraph)>,
) -> Result<(), String> {
    let l = &mut out.layers;
    graph_probe(tr, ctx.nproc, l);
    let published = probe.published.as_ref().expect("probe cell published");
    let trajectory: Vec<f64> = probe
        .stats
        .as_ref()
        .map(|s| s.candidates.iter().map(|c| c.sigma).collect())
        .unwrap_or_default();
    tr.span("probe.core", |tr| {
        core_probe(tr, ctx.nproc, g, &probe.params, &trajectory, published, l)
    });
    // The uncertain-graph layer is probed on the graph the workload
    // published or serves. A publish workload serves nothing, so its
    // serving layers are probed on the serve workload's graph: a
    // control that a publish-side change should not move.
    let own = match server {
        Some(_) => None,
        None => {
            let base = DatasetSpec::synthetic(Dataset::Dblp, 1000, DATASET_SEED).graph;
            let u = serve::loadgen_graph(DATASET_SEED, &base);
            let path = ctx.work.join("probe-served.snap");
            snapshot::save_snapshot_v3_with_meta(&u, SnapshotMeta::default(), &path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Some((ServerProc::start(&ctx.server_bin, &path)?, path, u))
        }
    };
    let (srv, snapshot_path, served) = match (server, &own) {
        (Some(s), _) => s,
        (None, Some((p, path, u))) => (p, path.as_path(), u),
        (None, None) => unreachable!("a server was started above"),
    };
    let uncertain = if own.is_some() { published } else { served };
    tr.span("probe.uncertain", |tr| {
        uncertain_probe(tr, uncertain, &ctx.work, ctx.seed, l)
    });
    let mix = Mix::for_seed(ctx.seed, served.num_vertices() as u64, 100_000_000);
    let answer_p50 = tr.span("probe.answer", |tr| answer_probe(tr, served, mix, l));
    if !l.0.contains_key("evolve.republish_ms") {
        tr.span("probe.evolve", |tr| {
            evolve_probe(tr, ctx.seed, ctx.nproc, l)
        });
    }
    // The republish stream already timed its reloads.
    let reload = (!l.0.contains_key("server.reload_ms")).then_some(snapshot_path);
    tr.span("probe.server", |tr| {
        server_probe(tr, srv, mix, ctx.nproc, answer_p50, reload, l)
    })?;
    if !l.0.contains_key("uncertain.cache_hit_rate") {
        let stats = srv.admin("CACHE_STATS")?;
        let rate = obf_bench::traffic::field_f64(&stats, "hit_rate=").unwrap_or(f64::NAN);
        l.put("uncertain.cache_hit_rate", rate, "ratio");
    }
    if let Some((s, _, _)) = own {
        s.stop();
    }
    Ok(())
}
