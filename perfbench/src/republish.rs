//! The republish workload: an evolving dblp-like graph whose delta
//! batches the republisher absorbs while the server serves readers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use obf_bench::HarnessConfig;
use obf_datasets::{evolving_dataset, Dataset, EvolvingDataset};
use obf_evolve::{DeltaLog, EvolveParams, RepublishReport, Republisher};
use obf_uncertain::{snapshot, SnapshotMeta, UncertainGraph};

use crate::serve::{self, Mix, ServerProc};
use crate::stamp::{fnv1a, FNV_OFFSET};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{layers, publish, stats, Ctx, Outcome};

#[derive(Debug, Clone, Copy)]
pub struct RepublishSpec {
    pub batches: usize,
}

impl RepublishSpec {
    pub const N: usize = 1000;
    pub const CHURN: f64 = 0.01;

    pub fn k(&self) -> usize {
        20
    }

    pub fn eps(&self) -> f64 {
        1e-2
    }

    pub fn harness(&self, seed: u64, threads: usize) -> HarnessConfig {
        HarnessConfig {
            scale: 0.05,
            worlds: 10,
            delta: 1e-4,
            seed,
            fast: false,
            threads,
            check: obf_core::CheckStrategy::FastPath,
        }
    }

    pub fn dataset(&self) -> EvolvingDataset {
        evolving_dataset(
            Dataset::Dblp,
            Self::N,
            self.batches,
            Self::CHURN,
            crate::DATASET_SEED,
        )
    }

    pub fn describe(&self) -> String {
        format!(
            "dblp n={} batches={} churn={} k={} eps={} delta=1e-4 headroom={}",
            Self::N,
            self.batches,
            Self::CHURN,
            self.k(),
            self.eps(),
            crate::layers::HEADROOM
        )
    }
}

/// The evolve digest: the base σ, each batch's search outcome and
/// structure, and each snapshot's checksum, as bit patterns (never
/// timings).
pub fn digest(base_sigma: f64, reports: &[RepublishReport], checksums: &[u64]) -> String {
    let mut words = vec![base_sigma.to_bits()];
    for r in reports {
        words.extend([
            r.epoch,
            r.incremental as u64,
            r.rows_recomputed as u64,
            r.candidate_changes as u64,
            r.sigma.to_bits(),
            r.eps_achieved.to_bits(),
            r.generate_calls as u64,
        ]);
    }
    words.extend_from_slice(checksums);
    let h = words
        .iter()
        .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));
    format!("{h:016x}")
}

/// The evolve digest at [`crate::DEFAULT_SEED`].
pub const PIN_REPUBLISH: &str = "7303e2a12dc4922c";
/// Set-ups per run: each runs a full σ search, so fewer than
/// [`crate::SETUP_REPS`].
const SETUP_REPS: usize = 5;
/// Delta batches of the stream.
pub const BATCHES: usize = 40;

/// One set-up of the republish workload: the stream, the base release
/// published and written, and the server serving it.
struct RepublishSetup {
    data: obf_datasets::EvolvingDataset,
    log: DeltaLog,
    rep: Republisher,
    base_sigma: f64,
    base_checksum: u64,
    server: ServerProc,
    base_path: PathBuf,
}

fn republish_setup(
    ctx: &Ctx,
    spec: &RepublishSpec,
    tr: &mut Tracer,
    i: usize,
) -> Result<(RepublishSetup, f64), String> {
    let cfg = spec.harness(ctx.seed, ctx.nproc);
    let t = Instant::now();
    let data = tr.span("datasets.synthetic", |_| spec.dataset());
    let synth_s = t.elapsed().as_secs_f64();
    let log = DeltaLog::new(data.base.num_vertices(), data.batches.clone())?;
    let params =
        EvolveParams::new(cfg.obf_params(spec.k(), spec.eps())).with_headroom(layers::HEADROOM);
    let (rep, result) = tr
        .span("evolve.publish", |_| {
            Republisher::publish(data.base.clone(), params)
        })
        .map_err(|e| format!("base publish: {e}"))?;
    let base_path = ctx.work.join(format!("release-{i}-0.snap"));
    let base_checksum = snapshot::save_snapshot_v3_with_meta(
        rep.published(),
        SnapshotMeta {
            epoch: 0,
            parent_checksum: 0,
        },
        &base_path,
    )
    .map_err(|e| format!("writing {}: {e}", base_path.display()))?;
    let server = ServerProc::start(&ctx.server_bin, &base_path)?;
    Ok((
        RepublishSetup {
            data,
            log,
            rep,
            base_sigma: result.sigma,
            base_checksum,
            server,
            base_path,
        },
        synth_s,
    ))
}

/// What one pass over the stream measured.
struct Stream {
    batch_ms: Vec<f64>,
    reports: Vec<obf_evolve::RepublishReport>,
    checksums: Vec<u64>,
    reader: serve::PhaseResult,
    /// Delta operations per second of each batch's latency.
    batch_rates: Vec<f64>,
    failed_batches: u64,
    releases: Vec<(obf_graph::Graph, UncertainGraph)>,
}

fn run_stream(ctx: &Ctx, s: &mut RepublishSetup, eps: f64, tr: &mut Tracer, tag: usize) -> Stream {
    let batches = s.log.batches().to_vec();
    let interval = Duration::from_secs_f64(ctx.seconds / batches.len().max(1) as f64);
    let window = interval * batches.len() as u32;
    let mix = Mix::for_seed(
        ctx.seed,
        s.data.base.num_vertices() as u64,
        1_000 + 10_000_000 * tag,
    );
    let origin = tr.origin();
    let addr = s.server.addr.clone();
    let mut st = Stream {
        batch_ms: Vec::new(),
        reports: Vec::new(),
        checksums: vec![s.base_checksum],
        reader: serve::PhaseResult::default(),
        batch_rates: Vec::new(),
        failed_batches: 0,
        releases: vec![(s.data.base.clone(), s.rep.published().clone())],
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            serve::open_loop(
                &addr,
                mix,
                serve::LIGHT_CONNS,
                layers::LIGHT_QPS,
                window,
                serve::Pacing::Sleep,
                origin,
            )
        });
        let start = Instant::now() + Duration::from_millis(20);
        let mut parent = s.base_checksum;
        for (j, batch) in batches.iter().enumerate() {
            let due = start + interval * j as u32;
            if let Some(d) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            let epoch = j as u64 + 1;
            let t = Instant::now();
            let open = tr.begin("republish.batch");
            let report = tr.span("evolve.republish", |_| s.rep.republish(batch));
            let path = ctx.work.join(format!("release-{tag}-{epoch}.snap"));
            let saved = tr.span("uncertain.save_snapshot_v3", |_| {
                snapshot::save_snapshot_v3_with_meta(
                    s.rep.published(),
                    SnapshotMeta {
                        epoch,
                        parent_checksum: parent,
                    },
                    &path,
                )
            });
            let reply = tr.span("server.reload", |_| {
                s.server.admin(&format!("RELOAD {}", path.display()))
            });
            tr.end(open);
            let secs = t.elapsed().as_secs_f64();
            st.batch_ms.push(secs * 1e3);
            st.batch_rates.push(batch.num_ops() as f64 / secs);
            let ok = match (&report, &saved, &reply) {
                (Ok(r), Ok(_), Ok(reply)) => {
                    reply.starts_with(&format!("OK reloaded epoch={epoch} "))
                        && r.eps_achieved <= eps
                }
                _ => false,
            };
            if !ok {
                st.failed_batches += 1;
            }
            if let Ok(sum) = saved {
                parent = sum;
                st.checksums.push(sum);
            }
            if let Ok(r) = report {
                st.reports.push(r);
            }
            st.releases
                .push((s.rep.original().clone(), s.rep.published().clone()));
        }
        st.reader = reader.join().expect("reader thread panicked");
    });
    st
}

/// Runs the republish workload: set-ups, the stream beside the reader,
/// the digest and certification checks and, when traced, an untraced
/// reference stream and the layer probes.
pub fn run(ctx: &Ctx, spec: &RepublishSpec, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut setup_s = Vec::new();
    let mut synth_s = Vec::new();
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        let (s, synth) = republish_setup(ctx, spec, tr, i)?;
        setup_s.push(t.elapsed().as_secs_f64());
        synth_s.push(synth);
        setups.push(s);
    }
    // Only the last set-up streams (two when traced: an untraced
    // reference first); stop the other servers now.
    let keep = if tr.enabled() { 2 } else { 1 };
    while setups.len() > keep {
        setups.remove(0).server.stop();
    }
    let mut untraced = None;
    if tr.enabled() {
        let st = run_stream(ctx, &mut setups[0], spec.eps(), &mut Tracer::new(false), 1);
        let d = digest(setups[0].base_sigma, &st.reports, &st.checksums);
        untraced = Some((st, d));
    }
    let s = setups.last_mut().expect("a set-up");
    let st = tr.span("republish.stream", |tr| {
        run_stream(ctx, s, spec.eps(), tr, 0)
    });
    let cache = s.server.admin("CACHE_STATS")?;
    out.digest = digest(s.base_sigma, &st.reports, &st.checksums);
    out.pin(ctx.seed, &out.digest.clone(), PIN_REPUBLISH, "evolve");
    if let Some((_, d)) = &untraced {
        if *d != out.digest {
            out.mismatches
                .push(format!("evolve digest {d} of the untraced stream differs"));
        }
    }
    // Every release certifies (k, ε) from scratch, outside the timing.
    for (epoch, (g, p)) in st.releases.iter().enumerate() {
        let table = obf_core::AdversaryTable::build(
            p,
            obf_uncertain::DegreeDistMethod::Auto { threshold: 64 },
        );
        let check = obf_core::ObfuscationCheck::run(
            g,
            &table,
            spec.k(),
            &obf_graph::Parallelism::sequential(),
        );
        if !check.satisfies(spec.eps() + 1e-12) {
            out.mismatches.push(format!(
                "release {epoch} does not certify: eps {}",
                check.eps_achieved
            ));
        }
    }
    out.attempted = spec.batches as u64 + st.reader.attempted;
    out.failed = st.failed_batches + st.reader.failed;
    let read_tail = tail(&st.reader.latencies_ms, 0.99).ok_or("too few reader samples")?;
    let read_p99 = stats::windowed_tail(
        &st.reader.timed,
        ctx.seconds,
        crate::serve::TAIL_WINDOW,
        0.99,
    )
    .ok_or("too few reader samples")?;
    let m = &mut out.end_to_end;
    m.put("setup_s", median(&setup_s).expect("setups"), "s");
    m.put(
        "throughput_per_s",
        median(&st.batch_rates).ok_or("no batches")?,
        "1/s",
    );
    m.put("p50_ms", median(&st.batch_ms).ok_or("no batches")?, "ms");
    out.layers.put("bench.tail_ms", read_p99, "ms");
    let fallbacks = st.reports.iter().filter(|r| !r.incremental).count();
    out.notes.push(format!(
        "{} batches ({fallbacks} full searches), batch p50 {:.3} ms; reader {} req/s: \
         windowed p99 {read_p99:.3} ms, whole-run p{:.2} {:.3} ms of {} samples; cache {}",
        st.batch_ms.len(),
        median(&st.batch_ms).unwrap_or(f64::NAN),
        layers::LIGHT_QPS,
        100.0 * read_tail.quantile(),
        read_tail.value,
        read_tail.count,
        cache.trim_start_matches("OK ")
    ));

    if tr.enabled() {
        let l = &mut out.layers;
        l.put("datasets.synth_s", median(&synth_s).expect("setups"), "s");
        l.put("bench.latency_samples", read_tail.count as f64, "count");
        let (u, _) = untraced.as_ref().expect("untraced stream ran");
        l.put(
            "bench.trace_overhead_share",
            median(&st.batch_ms).unwrap_or(f64::NAN) / median(&u.batch_ms).unwrap_or(f64::NAN)
                - 1.0,
            "share",
        );
        let rate = obf_bench::traffic::field_f64(&cache, "hit_rate=").unwrap_or(f64::NAN);
        l.put("uncertain.cache_hit_rate", rate, "ratio");
        l.put(
            "server.reload_ms",
            median(&tr.durations_us("server.reload")).unwrap_or(f64::NAN) / 1e3,
            "ms",
        );
        layers::evolve_metrics(tr, &st.reports, l);
        let cfg = spec.harness(ctx.seed, ctx.nproc);
        let cell = publish::Cell {
            dataset: Dataset::Dblp,
            k: spec.k(),
            eps: spec.eps(),
        };
        let base = s.data.base.clone();
        let probe = tr.span("probe.cell", |tr| publish::run_cell(&cfg, &base, cell, tr));
        publish::core_counters(std::slice::from_ref(&probe), &mut out.layers);
        let u_final = st.releases.last().expect("releases").1.clone();
        let path = s.base_path.clone();
        let server = &s.server;
        layers::layer_suite(
            ctx,
            tr,
            &mut out,
            &base,
            &probe,
            Some((server, &path, &u_final)),
        )?;
    }
    for s in setups {
        s.server.stop();
    }
    Ok(out)
}
