//! `cluster_bench`: the scale-out trajectory
//! (`results/BENCH_cluster.json`).
//!
//! Wall-clock of the Definition 2 check run single-process (profile +
//! adversary table + fold, one thread) versus distributed over 1/2/4
//! workers on each transport (in-process channels, loopback sockets,
//! and — with `--processes` — real `cluster_worker` child processes),
//! over the same published graph `loadgen` serves. Every distributed
//! run is asserted bit-identical to the baseline first; a timing for a
//! wrong answer is worthless.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use obf_bench::json::Json;
use obf_bench::HarnessConfig;
use obf_cluster::{
    spawn_in_proc_workers, spawn_socket_workers, Coordinator, SocketTransport, Transport,
};
use obf_core::{AdversaryTable, DegreeProfile, ObfuscationCheck};
use obf_datasets::Dataset;
use obf_graph::Parallelism;
use obf_uncertain::{DegreeDistMethod, UncertainGraph};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "usage:
  cluster_bench [--processes]
options:
  --processes         also time cluster_worker child processes (needs the
                      cluster_worker binary next to this one)";

/// The check is timed at this chunk size: small enough that every
/// worker count in the matrix gets several chunks on the bench graph,
/// and identical for the baseline and every distributed run so the
/// floating-point fold is the same everywhere.
const CHUNK_SIZE: usize = 64;
const CHECK_K: usize = 5;
const METHOD: DegreeDistMethod = DegreeDistMethod::Auto { threshold: 30 };

fn main() {
    if obf_bench::help_requested() {
        println!("cluster_bench: partitioned-check benchmark");
        println!("{USAGE}");
        println!("{}", obf_bench::HARNESS_USAGE);
        return;
    }
    reject_unknown_flags();
    let cfg = HarnessConfig::init();
    let processes = std::env::args().any(|a| a == "--processes");

    // The same published graph loadgen serves: the 0.05-scale dblp
    // shape (unless OBF_SCALE overrides).
    let scale = if std::env::var("OBF_SCALE").is_ok() {
        cfg.scale
    } else {
        0.05
    };
    let n = ((Dataset::Dblp.default_scale() as f64 * scale) as usize).max(200);
    let base = obf_datasets::DatasetSpec::synthetic(Dataset::Dblp, n, cfg.seed).graph;
    let mut prng = SmallRng::seed_from_u64(cfg.seed ^ 0x5e4e);
    let cands: Vec<(u32, u32, f64)> = base
        .edges()
        .map(|(u, v)| (u, v, 0.2 + 0.8 * prng.gen::<f64>()))
        .collect();
    let published = UncertainGraph::new(base.num_vertices(), cands).unwrap();
    eprintln!(
        "[published graph: n = {}, |E_C| = {}]",
        published.num_vertices(),
        published.num_candidates()
    );

    let profile = DegreeProfile::new(&base);
    let par = Parallelism::sequential().with_chunk_size(CHUNK_SIZE);
    let expected = ObfuscationCheck::run_with_profile(
        &profile,
        &AdversaryTable::build(&published, METHOD),
        CHECK_K,
        &par,
    );
    let baseline_secs = best_of_two(|| {
        let table = AdversaryTable::build(&published, METHOD);
        let check = ObfuscationCheck::run_with_profile(&profile, &table, CHECK_K, &par);
        assert_eq!(check.failed_vertices, expected.failed_vertices);
    });
    eprintln!("[baseline single-process check: {baseline_secs:.4}s]");

    let mut transports: Vec<&str> = vec!["in_proc", "socket"];
    if processes {
        transports.push("process");
    }
    let mut check_runs = Vec::new();
    for transport in transports {
        for workers in [1usize, 2, 4] {
            let (mut children, worker_transports) = match transport {
                "in_proc" => (Vec::new(), spawn_in_proc_workers(workers)),
                "socket" => (
                    Vec::new(),
                    spawn_socket_workers(workers).expect("loopback socket workers"),
                ),
                _ => spawn_process_workers(workers).unwrap_or_else(|e| {
                    eprintln!("cluster_bench: cannot spawn cluster_worker processes: {e}");
                    std::process::exit(1);
                }),
            };
            let mut coord = Coordinator::new(worker_transports);
            coord.load_graph(&published).expect("load graph on workers");
            let verify = |coord: &mut Coordinator| {
                let got = coord
                    .check_with_profile(&profile, CHECK_K, METHOD, CHUNK_SIZE)
                    .expect("distributed check");
                let identical = got.eps_achieved.to_bits() == expected.eps_achieved.to_bits()
                    && got.failed_vertices == expected.failed_vertices
                    && got
                        .entropy_by_degree
                        .iter()
                        .zip(&expected.entropy_by_degree)
                        .all(|((dg, hg), (de, he))| dg == de && hg.to_bits() == he.to_bits());
                if !identical {
                    eprintln!(
                        "cluster_bench: {transport} × {workers} workers diverged from \
                         the single-process check — refusing to record a timing"
                    );
                    std::process::exit(1);
                }
            };
            verify(&mut coord); // warm-up doubles as the bit-identity gate
            let secs = best_of_two(|| verify(&mut coord));
            coord.shutdown().expect("worker shutdown");
            for child in &mut children {
                child.wait().expect("cluster_worker exit");
            }
            eprintln!(
                "[check {transport} × {workers} workers: {secs:.4}s, speedup {:.2}x]",
                baseline_secs / secs
            );
            check_runs.push(Json::obj([
                ("transport", Json::str(transport)),
                ("workers", Json::from(workers)),
                ("secs", Json::Num(secs)),
                ("speedup", Json::Num(baseline_secs / secs)),
                ("bit_identical", Json::Bool(true)),
            ]));
        }
    }

    println!(
        "cluster_bench: baseline check {baseline_secs:.4}s; every distributed run bit-identical"
    );

    let json = Json::obj([
        ("bench", Json::str("cluster")),
        (
            "config",
            Json::obj([
                ("seed", Json::from(cfg.seed)),
                ("processes", Json::Bool(processes)),
                ("chunk_size", Json::from(CHUNK_SIZE)),
                ("k", Json::from(CHECK_K)),
            ]),
        ),
        (
            "graph",
            Json::obj([
                ("n", Json::from(published.num_vertices())),
                ("candidates", Json::from(published.num_candidates())),
            ]),
        ),
        (
            "check",
            Json::obj([
                ("baseline_secs", Json::Num(baseline_secs)),
                ("runs", Json::Arr(check_runs)),
            ]),
        ),
    ]);
    obf_bench::write_json("BENCH_cluster.json", &json);
}

/// Best-of-two wall clock of `f` (one-off scheduler spikes lose).
fn best_of_two(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Child worker processes plus one connected socket transport each.
type ProcessWorkers = (Vec<Child>, Vec<Box<dyn Transport>>);

/// Spawns `count` `cluster_worker` child processes (the binary next to
/// the current executable), reads each `LISTENING <addr>` handshake,
/// and connects a socket transport to every one.
fn spawn_process_workers(count: usize) -> std::io::Result<ProcessWorkers> {
    let exe = std::env::current_exe()?;
    let worker_bin = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("current_exe has no parent directory"))?
        .join("cluster_worker");
    let mut children = Vec::with_capacity(count);
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(count);
    for _ in 0..count {
        let mut child = Command::new(&worker_bin).stdout(Stdio::piped()).spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line)?;
        let addr = line.trim().strip_prefix("LISTENING ").ok_or_else(|| {
            std::io::Error::other(format!("unexpected cluster_worker handshake {line:?}"))
        })?;
        transports.push(Box::new(SocketTransport::connect(addr)?));
        children.push(child);
    }
    Ok((children, transports))
}

/// A misspelled flag must not silently fall back to a default — usage
/// plus exit 2 for anything unrecognised (the hardened-CLI contract).
/// `--threads` belongs to the shared harness, which validates its value.
fn reject_unknown_flags() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--threads" {
            i += 2;
        } else if ["--help", "-h", "--processes"].contains(&a) || a.starts_with("--threads=") {
            i += 1;
        } else {
            eprintln!("error: unknown argument {a:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
