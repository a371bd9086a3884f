//! `perfbench`: the reference benchmark of the obfugraph workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --server-bin <path>
//! perfbench --summary
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds `obf_server` and this package first. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). An output-check mismatch marks every operation of the
//! run failed and exits with status 1. See `perfbench/README.md`.

mod layers;
mod publish;
mod republish;
mod serve;
mod stamp;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use publish::PublishSpec;
use republish::RepublishSpec;
use stamp::{Record, Stamp};
use stats::median;
use trace::Tracer;

/// The seed the pinned output digests (`PIN_*` in the workload
/// modules) belong to.
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// The synthetic datasets (graphs and the delta stream) are fixed, as
/// a real dataset would be; `--seed` draws everything random on top of
/// them: the obfuscation noise, the edge probabilities of the served
/// graph, the query mix and the arrival schedule. A per-seed dataset
/// would move how many grid cells are feasible (5 to 10 of 27 over
/// four seeds) and with it the publish time by half.
pub const DATASET_SEED: u64 = DEFAULT_SEED;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

const WORKLOADS: [&str; 4] = ["publish-grid", "publish-large", "serve", "republish"];

/// End-to-end metrics, reported by every untraced run. The tail
/// latency is a per-layer metric (`bench.tail_ms`): on this benchmark's
/// shared 2-vCPU reference host, CPU steal moved the open-loop p99s of
/// whole runs by up to 3×, past any bound the acceptance check allows.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("datasets.synth_s", "s"),
        ("graph.par_call_us", "us"),
        ("core.candidates", "count"),
        ("core.dp_evaluations", "count"),
        ("core.dp_cache_hit_rate", "ratio"),
        ("core.dp_work_ratio", "ratio"),
        ("core.early_exit_share", "share"),
        ("core.failed_cells_s", "share"),
        ("core.unobfuscated_cells", "count"),
        ("core.generate_ms", "ms"),
        ("core.commonness_us", "us"),
        ("core.check_ms", "ms"),
        ("core.check_1t_ms", "ms"),
        ("core.check_speedup", "ratio"),
        ("core.select_noise_ms", "ms"),
        ("uncertain.build_ms", "ms"),
        ("uncertain.snapshot_write_ms", "ms"),
        ("uncertain.open_ms", "ms"),
        ("uncertain.open_verified_ms", "ms"),
        ("uncertain.decode_ms", "ms"),
        ("uncertain.sample_world_us", "us"),
        ("uncertain.cache_hit_us", "us"),
        ("uncertain.cache_miss_us", "us"),
        ("uncertain.cache_hit_rate", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for kind in ["p50", "p99"] {
        for class in serve::CLASSES {
            out.push((format!("server.answer_us.{class}.{kind}"), "us"));
        }
    }
    for class in serve::CLASSES {
        out.push((format!("server.client_us.{class}.p50"), "us"));
    }
    out.extend(
        [
            ("server.unattributed_us", "us"),
            ("server.loop_busy_share", "share"),
            ("server.reload_ms", "ms"),
            ("server.protocol_errors", "count"),
            ("server.busy_rejections", "count"),
            ("evolve.republish_ms", "ms"),
            ("evolve.rows_recomputed_share", "share"),
            ("evolve.fallback_batches", "count"),
            ("bench.gen_late_ms", "ms"),
            ("bench.busy_p99_ms", "ms"),
            ("bench.knee_qps", "1/s"),
            ("bench.trace_overhead_share", "share"),
            ("bench.tail_ms", "ms"),
            ("bench.light_p50_ms", "ms"),
            ("bench.latency_samples", "count"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// Named metric values with units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Checks that exactly `expected` are present, with their units and
    /// finite values.
    fn check(&self, expected: &[(String, &'static str)]) -> Result<(), String> {
        for (name, unit) in expected {
            match self.0.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some((_, u)) if u != unit => return Err(format!("metric {name} has unit {u}")),
                Some((v, _)) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                _ => {}
            }
        }
        if let Some(extra) = self
            .0
            .keys()
            .find(|k| !expected.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(())
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    stamp::json_str(name),
                    stamp::json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

const USAGE: &str = "usage:
  perfbench --workload <publish-grid|publish-large|serve|republish> --seed <n>
            --seconds <s> --trace <0|1> --server-bin <path to obf_server>
  perfbench --summary     medians and quartiles of the recorded runs, by stamp";

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut server_bin = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = parse_seed(value).ok_or(format!("invalid seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("invalid --seconds {value:?}"))?
            }
            "--trace" if value == "0" || value == "1" => trace = value == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("invalid argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing or unknown --workload")?,
        seed,
        seconds,
        trace,
        server_bin: server_bin.ok_or("missing --server-bin")?,
    })
}

/// What one run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Output-check failures; any one fails the whole run.
    mismatches: Vec<String>,
    digest: String,
    end_to_end: Metrics,
    layers: Metrics,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            digest: String::new(),
            end_to_end: Metrics::default(),
            layers: Metrics::default(),
            notes: Vec::new(),
        }
    }

    fn pin(&mut self, seed: u64, digest: &str, pinned: &str, what: &str) {
        if seed == DEFAULT_SEED && digest != pinned {
            self.mismatches
                .push(format!("{what} digest {digest} is not the pinned {pinned}"));
        }
    }
}

struct Ctx {
    work: PathBuf,
    seed: u64,
    seconds: f64,
    nproc: usize,
    server_bin: PathBuf,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let root = match std::env::current_dir() {
        Ok(d) if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() => d,
        _ => {
            eprintln!("perfbench: run from the repository root");
            return ExitCode::from(2);
        }
    };
    let state_dir = root.join(".perfbench");
    if args.first().map(String::as_str) == Some("--summary") {
        return summary(&state_dir.join("history.tsv"));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.server_bin.is_file() {
        eprintln!(
            "perfbench: no server binary at {}",
            args.server_bin.display()
        );
        return ExitCode::from(2);
    }
    let work = state_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        server_bin: args.server_bin.clone(),
    };
    let mut tr = Tracer::new(args.trace);
    let (config, result) = match args.workload.as_str() {
        "publish-grid" => {
            let spec = PublishSpec::grid();
            (
                spec.describe(),
                publish::run(&ctx, &spec, publish::PIN_GRID, &mut tr),
            )
        }
        "publish-large" => {
            let spec = PublishSpec::large();
            (
                spec.describe(),
                publish::run(&ctx, &spec, publish::PIN_LARGE, &mut tr),
            )
        }
        "serve" => (serve_config(), serve::run(&ctx, &mut tr)),
        _ => {
            let spec = RepublishSpec {
                batches: republish::BATCHES,
            };
            (spec.describe(), republish::run(&ctx, &spec, &mut tr))
        }
    };
    let code = match result {
        Ok(outcome) => report(&root, &state_dir, &args, &config, outcome, &tr),
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            ExitCode::from(1)
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    code
}

fn serve_config() -> String {
    format!(
        "dblp n=1000 loadgen-probabilities seed={:#x} mix-seed={:#x} cache={} worlds={} \
         pipeline={} light={} light-conns={} busy={} limit_ms={}",
        DATASET_SEED,
        serve::MIX_SEED,
        serve::CACHE,
        serve::WORLDS,
        serve::PIPELINE_DEPTH,
        layers::LIGHT_QPS,
        serve::LIGHT_CONNS,
        layers::BUSY_QPS,
        serve::LIMIT_MS
    )
}

/// Stamps, checks against the history, prints and records one run.
fn report(
    root: &Path,
    state_dir: &Path,
    args: &Args,
    config: &str,
    mut out: Outcome,
    tr: &Tracer,
) -> ExitCode {
    let config_text = format!(
        "workload={} {config} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let stamp = Stamp::measure(root, &config_text);
    let history_path = state_dir.join("history.tsv");
    let history = stamp::read_history(&history_path);
    let (metrics, expected) = if args.trace {
        (&out.layers, per_layer())
    } else {
        let e2e = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        (&out.end_to_end, e2e)
    };
    if let Err(msg) = metrics.check(&expected) {
        eprintln!("perfbench: {}: {msg}", args.workload);
        return ExitCode::from(1);
    }
    let record = Record {
        stamp_key: stamp.key(),
        source: stamp.source.clone(),
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        digest: out.digest.clone(),
        metrics: metrics
            .0
            .iter()
            .map(|(k, (v, _))| (k.clone(), *v))
            .collect(),
    };
    if let Some(earlier) = stamp::conflicting_digest(&history, &record) {
        out.mismatches.push(format!(
            "digest {} differs from {} recorded by an earlier run of this code and seed",
            out.digest, earlier.digest
        ));
    }
    // Earlier runs of this workload under another stamp are not
    // comparable with this one; say so rather than pool them.
    let earlier_stamps: std::collections::BTreeSet<&str> = history
        .iter()
        .filter(|r| r.workload == record.workload && r.trace == record.trace)
        .map(|r| r.stamp_key.as_str())
        .collect();
    for earlier in earlier_stamps {
        if let Some(why) = stamp::incomparable(earlier, &record.stamp_key) {
            out.notes
                .push(format!("not comparable with earlier runs ({why})"));
        }
    }
    let correct = out.mismatches.is_empty();
    if !correct {
        out.failed = out.attempted;
        for m in &out.mismatches {
            eprintln!("perfbench: output check failed: {m}");
        }
    }
    if args.trace {
        let path = state_dir.join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        match tr.write_tsv(&path) {
            Ok(()) => eprintln!("[spans written to {}]", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    if correct {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .and_then(|mut f| writeln!(f, "{}", record.to_line()));
        if let Err(e) = appended {
            eprintln!("perfbench: recording the run: {e}");
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    if let Some(share) = stats::failed_share(out.attempted, out.failed) {
        println!(
            "failed_share {share} ({} of {} operations)",
            out.failed, out.attempted
        );
    }
    println!("digest {}", out.digest);
    println!("stamp {}", stamp.to_json());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Medians and quartiles of the recorded runs, grouped so that runs
/// with different stamps are never pooled.
fn summary(path: &Path) -> ExitCode {
    let history = stamp::read_history(path);
    if history.is_empty() {
        eprintln!("perfbench: no runs recorded in {}", path.display());
        return ExitCode::from(1);
    }
    let mut groups: BTreeMap<(String, String, String, bool), Vec<&Record>> = BTreeMap::new();
    for r in &history {
        let key = (
            r.stamp_key.clone(),
            r.source.clone(),
            r.workload.clone(),
            r.trace,
        );
        groups.entry(key).or_default().push(r);
    }
    for ((stamp_key, source, workload, trace), runs) in &groups {
        println!(
            "{workload} trace={} source={source} runs={} [{stamp_key}]",
            *trace as u8,
            runs.len()
        );
        let names: Vec<&String> = runs[0].metrics.keys().collect();
        for name in names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let med = median(&values).unwrap_or(f64::NAN);
            match stats::quartiles(&values) {
                Some([q1, _, q3]) => println!(
                    "  {name:<40} median {med:<14.6} q1 {q1:<14.6} q3 {q3:<14.6} spread {:.4}",
                    stats::spread(&values).unwrap_or(f64::NAN)
                ),
                None => println!("  {name:<40} median {med:.6}"),
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn arguments_parse_or_fail() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload serve --seed 0x2a --seconds 20 --trace 1 --server-bin x",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, true));
        assert!(parse_args(&args("--workload nope --server-bin x")).is_err());
        assert!(parse_args(&args("--workload serve --trace 2 --server-bin x")).is_err());
        assert!(parse_args(&args("--workload serve")).is_err());
        assert!(parse_args(&args("--workload serve --seconds -1 --server-bin x")).is_err());
    }
}
