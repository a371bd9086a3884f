//! Result stamps and the run history. Every result carries the
//! hardware, toolchain, source and workload configuration it was
//! measured under; two results are comparable only when their stamps
//! agree on everything but the source (the source is what a comparison
//! compares).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a over bytes, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    /// Hash of the workload configuration (workload, its parameters,
    /// seed, run length, trace flag).
    pub config: String,
    /// `git` commit when the checkout is a repository, else "none".
    pub commit: String,
    /// Hash of the program's source files: identifies the code in a
    /// checkout that is not a repository.
    pub source: String,
}

/// Why results stamped with keys `a` and `b` (see [`Stamp::key`])
/// cannot be compared, or `None` when they can.
pub fn incomparable(a: &str, b: &str) -> Option<String> {
    let (fa, fb): (Vec<&str>, Vec<&str>) = (a.split(';').collect(), b.split(';').collect());
    if fa.len() != fb.len() {
        return Some(format!("stamps {a:?} and {b:?} have different fields"));
    }
    fa.into_iter()
        .zip(fb)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{x} vs {y}"))
}

impl Stamp {
    /// The fields that decide comparability, as one key. Commit and
    /// source are left out: they name the code under comparison.
    pub fn key(&self) -> String {
        format!(
            "nproc={};cpu={};rustc={};config={}",
            self.nproc, self.cpu, self.rustc, self.config
        )
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"config\": {}, \"commit\": {}, \"source\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.config),
            json_str(&self.commit),
            json_str(&self.source)
        )
    }

    /// Measures the stamp of this machine and checkout.
    pub fn measure(root: &Path, config_text: &str) -> Stamp {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
        let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"], root)
            .unwrap_or_else(|| "none".into());
        Stamp {
            nproc,
            cpu: clean(&cpu),
            rustc: clean(&rustc),
            config: format!("{:016x}", fnv1a(FNV_OFFSET, config_text.as_bytes())),
            commit: clean(&commit),
            source: format!("{:016x}", source_hash(root)),
        }
    }
}

/// First line of a command's standard output, or `None` if it fails.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

/// Tabs, newlines and the key separator would break the history format.
fn clean(s: &str) -> String {
    s.replace(['\t', '\n', '\r', ';'], " ")
}

/// Hash of the program's sources: the workspace manifests and every
/// file under `crates/`, `vendor/`, `src/` and the benchmark's own
/// `src/`, in sorted path order, skipping build output.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "src",
        "perfbench",
    ] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        h = fnv1a(h, rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&path) {
            h = fnv1a(h, &bytes);
        }
    }
    h
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return;
    };
    if meta.is_file() {
        out.push(path.to_path_buf());
    } else if meta.is_dir() {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if matches!(name.as_deref(), Some("target") | Some(".work")) {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect_files(&e.path(), out);
            }
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One line of the run history.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub stamp_key: String,
    pub source: String,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.stamp_key,
            self.source,
            self.workload,
            self.seed,
            self.trace as u8,
            self.digest,
            metrics.join(",")
        )
    }

    pub fn parse(line: &str) -> Option<Record> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 {
            return None;
        }
        let metrics = f[6]
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(Record {
            stamp_key: f[0].into(),
            source: f[1].into(),
            workload: f[2].into(),
            seed: f[3].parse().ok()?,
            trace: f[4] == "1",
            digest: f[5].into(),
            metrics,
        })
    }
}

/// The digest earlier runs of the same code, stamp, workload and seed
/// recorded, if any disagrees with `digest`.
pub fn conflicting_digest<'a>(history: &'a [Record], now: &Record) -> Option<&'a Record> {
    history.iter().find(|r| {
        r.stamp_key == now.stamp_key
            && r.source == now.source
            && r.workload == now.workload
            && r.seed == now.seed
            && r.digest != now.digest
    })
}

pub fn read_history(path: &Path) -> Vec<Record> {
    std::fs::read_to_string(path)
        .map(|t| t.lines().filter_map(Record::parse).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> Stamp {
        Stamp {
            nproc: 2,
            cpu: "Test CPU @ 2.0GHz".into(),
            rustc: "rustc 1.95.0".into(),
            config: "00000000deadbeef".into(),
            commit: "abc".into(),
            source: "0123".into(),
        }
    }

    #[test]
    fn stamps_compare_on_hardware_toolchain_and_config() {
        let a = stamp();
        assert_eq!(incomparable(&a.key(), &a.key()), None);
        // Different code is what a comparison compares.
        let b = Stamp {
            commit: "def".into(),
            source: "4567".into(),
            ..stamp()
        };
        assert_eq!(incomparable(&a.key(), &b.key()), None);
        for (other, field) in [
            (
                Stamp {
                    nproc: 4,
                    ..stamp()
                },
                "nproc=4",
            ),
            (
                Stamp {
                    cpu: "Other".into(),
                    ..stamp()
                },
                "cpu=Other",
            ),
            (
                Stamp {
                    rustc: "rustc 1.80.0".into(),
                    ..stamp()
                },
                "rustc=rustc 1.80.0",
            ),
            (
                Stamp {
                    config: "1".into(),
                    ..stamp()
                },
                "config=1",
            ),
        ] {
            let why = incomparable(&a.key(), &other.key()).expect("must be incomparable");
            assert!(why.ends_with(field), "{why}");
        }
        assert!(incomparable(&a.key(), "nproc=2").is_some());
    }

    #[test]
    fn history_round_trips_and_flags_digest_drift() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_string(), 0.8127);
        metrics.insert("p50_ms".to_string(), 1.25e-3);
        let r = Record {
            stamp_key: stamp().key(),
            source: "0123".into(),
            workload: "serve".into(),
            seed: 7,
            trace: false,
            digest: "f6ed1718c9ff44a5".into(),
            metrics,
        };
        assert_eq!(Record::parse(&r.to_line()), Some(r.clone()));
        assert_eq!(Record::parse("garbage"), None);
        let same = r.clone();
        assert!(conflicting_digest(std::slice::from_ref(&same), &r).is_none());
        let drift = Record {
            digest: "0000000000000000".into(),
            ..r.clone()
        };
        assert!(conflicting_digest(std::slice::from_ref(&drift), &r).is_some());
        // Another seed or other code may give another digest.
        let other_seed = Record {
            seed: 8,
            ..drift.clone()
        };
        let other_code = Record {
            source: "9".into(),
            ..drift
        };
        assert!(conflicting_digest(&[other_seed, other_code], &r).is_none());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
