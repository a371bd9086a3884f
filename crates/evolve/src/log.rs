//! The versioned delta-log format: a header plus timestamped batches of
//! edge inserts/deletes over a fixed vertex set.
//!
//! Like the TSV publication format, the log is a line-oriented text
//! artifact — auditable with `grep`, diffable in review — with a strict
//! parser that names the offending line on any error:
//!
//! ```text
//! OBFUDELTA v1 n=<n> batches=<b>
//! batch <timestamp> +<inserts> -<deletes>
//! + <u> <v>
//! - <u> <v>
//! ...
//! ```
//!
//! Timestamps must be non-decreasing across batches, every pair must be
//! canonical for the declared vertex count, and the per-batch operation
//! counts in the `batch` line must match the body — a truncated or
//! hand-edited log can never half-apply.
//!
//! The normative grammar lives in `docs/FORMATS.md` § "Delta logs
//! (OBFUDELTA v1)".

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use obf_graph::{EdgeBatch, Graph};

/// Magic first token of a delta log.
pub const DELTA_LOG_MAGIC: &str = "OBFUDELTA";

/// Current delta-log format version.
pub const DELTA_LOG_VERSION: u32 = 1;

/// Errors from delta-log reading.
#[derive(Debug)]
pub enum DeltaLogError {
    Io(std::io::Error),
    /// Malformed content, with the 1-based line number.
    Invalid {
        line: usize,
        msg: String,
    },
}

impl std::fmt::Display for DeltaLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaLogError::Io(e) => write!(f, "I/O error: {e}"),
            DeltaLogError::Invalid { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for DeltaLogError {}

impl From<std::io::Error> for DeltaLogError {
    fn from(e: std::io::Error) -> Self {
        DeltaLogError::Io(e)
    }
}

/// A validated delta log: the vertex count it applies to plus its
/// batches in timestamp order.
///
/// # Examples
///
/// ```
/// use obf_evolve::DeltaLog;
/// use obf_graph::EdgeBatch;
///
/// let log = DeltaLog::new(
///     4,
///     vec![
///         EdgeBatch::new(10, vec![(0, 2)], vec![]).unwrap(),
///         EdgeBatch::new(20, vec![(1, 3)], vec![(0, 2)]).unwrap(),
///     ],
/// )
/// .unwrap();
/// let mut buf = Vec::new();
/// log.write(&mut buf).unwrap();
/// assert_eq!(DeltaLog::read(&buf[..]).unwrap(), log);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaLog {
    n: usize,
    batches: Vec<EdgeBatch>,
}

impl DeltaLog {
    /// Validates vertex ranges and timestamp monotonicity. The batches
    /// themselves are already canonical by [`EdgeBatch`] construction.
    pub fn new(n: usize, batches: Vec<EdgeBatch>) -> Result<Self, String> {
        let mut last_ts = 0u64;
        for (i, b) in batches.iter().enumerate() {
            if i > 0 && b.timestamp < last_ts {
                return Err(format!(
                    "batch {i} timestamp {} decreases below {last_ts}",
                    b.timestamp
                ));
            }
            last_ts = b.timestamp;
            for &(u, v) in b.inserts.iter().chain(&b.deletes) {
                if v as usize >= n {
                    return Err(format!("batch {i} pair ({u},{v}) out of range for n={n}"));
                }
            }
        }
        Ok(Self { n, batches })
    }

    /// Vertex count of the graphs this log applies to.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The batches, in timestamp order.
    pub fn batches(&self) -> &[EdgeBatch] {
        &self.batches
    }

    /// Total edge operations across all batches.
    pub fn num_ops(&self) -> usize {
        self.batches.iter().map(|b| b.num_ops()).sum()
    }

    /// Replays every batch on `base`, returning one graph per release
    /// (`base` itself first).
    pub fn replay(&self, base: &Graph) -> Result<Vec<Graph>, String> {
        if base.num_vertices() != self.n {
            return Err(format!(
                "log is for n={} but base graph has n={}",
                self.n,
                base.num_vertices()
            ));
        }
        let mut out = Vec::with_capacity(self.batches.len() + 1);
        out.push(base.clone());
        for (i, b) in self.batches.iter().enumerate() {
            let next = out
                .last()
                .unwrap()
                .apply_batch(b)
                .map_err(|e| format!("batch {i}: {e}"))?;
            out.push(next);
        }
        Ok(out)
    }

    /// Serialises the log.
    pub fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "{DELTA_LOG_MAGIC} v{DELTA_LOG_VERSION} n={} batches={}",
            self.n,
            self.batches.len()
        )?;
        for b in &self.batches {
            writeln!(
                w,
                "batch {} +{} -{}",
                b.timestamp,
                b.inserts.len(),
                b.deletes.len()
            )?;
            for &(u, v) in &b.inserts {
                writeln!(w, "+ {u} {v}")?;
            }
            for &(u, v) in &b.deletes {
                writeln!(w, "- {u} {v}")?;
            }
        }
        w.flush()
    }

    /// Parses a log, verifying header, per-batch counts, pair validity
    /// and timestamp order; errors carry the offending line number.
    pub fn read<R: Read>(r: R) -> Result<Self, DeltaLogError> {
        let invalid = |line: usize, msg: String| DeltaLogError::Invalid { line, msg };
        let mut lines = BufReader::new(r).lines();
        let header = lines
            .next()
            .ok_or_else(|| invalid(1, "empty delta log".into()))??;
        let mut parts = header.split_whitespace();
        if parts.next() != Some(DELTA_LOG_MAGIC) {
            return Err(invalid(1, format!("not a delta log: {header:?}")));
        }
        match parts.next() {
            Some(v) if v == format!("v{DELTA_LOG_VERSION}") => {}
            other => {
                return Err(invalid(
                    1,
                    format!("unsupported version {other:?} (expected v{DELTA_LOG_VERSION})"),
                ))
            }
        }
        let n: usize = parse_kv(parts.next(), "n").map_err(|m| invalid(1, m))?;
        let declared: usize = parse_kv(parts.next(), "batches").map_err(|m| invalid(1, m))?;
        if parts.next().is_some() {
            return Err(invalid(1, "trailing tokens in header".into()));
        }

        let mut batches: Vec<EdgeBatch> = Vec::with_capacity(declared);
        let mut lineno = 1usize;
        while let Some(line) = lines.next() {
            lineno += 1;
            let line = line?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("batch") {
                return Err(invalid(lineno, format!("expected a batch line: {line:?}")));
            }
            let ts: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| invalid(lineno, "invalid batch timestamp".into()))?;
            let n_ins: usize = parse_count(parts.next(), '+').map_err(|m| invalid(lineno, m))?;
            let n_del: usize = parse_count(parts.next(), '-').map_err(|m| invalid(lineno, m))?;
            if parts.next().is_some() {
                return Err(invalid(lineno, "trailing tokens in batch line".into()));
            }
            let mut inserts = Vec::with_capacity(n_ins);
            let mut deletes = Vec::with_capacity(n_del);
            for _ in 0..n_ins + n_del {
                let op = lines
                    .next()
                    .ok_or_else(|| invalid(lineno, "log ends inside a batch body".into()))?;
                lineno += 1;
                let op = op?;
                let mut parts = op.split_whitespace();
                let (sign, u, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(sign @ ("+" | "-")), Some(u), Some(v), None) => {
                        let u: u32 = u
                            .parse()
                            .map_err(|_| invalid(lineno, format!("invalid vertex {u:?}")))?;
                        let v: u32 = v
                            .parse()
                            .map_err(|_| invalid(lineno, format!("invalid vertex {v:?}")))?;
                        (sign, u, v)
                    }
                    _ => return Err(invalid(lineno, format!("malformed op line: {op:?}"))),
                };
                if sign == "+" {
                    inserts.push((u, v));
                } else {
                    deletes.push((u, v));
                }
            }
            if inserts.len() != n_ins || deletes.len() != n_del {
                return Err(invalid(
                    lineno,
                    format!(
                        "batch declared +{n_ins} -{n_del} but carries +{} -{}",
                        inserts.len(),
                        deletes.len()
                    ),
                ));
            }
            let batch = EdgeBatch::new(ts, inserts, deletes).map_err(|m| invalid(lineno, m))?;
            batches.push(batch);
        }
        if batches.len() != declared {
            return Err(invalid(
                lineno,
                format!(
                    "header declared {declared} batches, found {}",
                    batches.len()
                ),
            ));
        }
        Self::new(n, batches).map_err(|m| invalid(lineno, m))
    }

    /// Saves the log to a file path.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write(std::io::BufWriter::new(file))
    }

    /// Loads a log from a file path.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, DeltaLogError> {
        Self::read(std::fs::File::open(path)?)
    }
}

fn parse_kv<T: std::str::FromStr>(token: Option<&str>, key: &str) -> Result<T, String> {
    token
        .and_then(|t| t.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("header missing {key}=<value>"))
}

fn parse_count(token: Option<&str>, sign: char) -> Result<usize, String> {
    token
        .and_then(|t| t.strip_prefix(sign))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("batch line missing {sign}<count>"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeltaLog {
        DeltaLog::new(
            5,
            vec![
                EdgeBatch::new(100, vec![(0, 1), (2, 4)], vec![]).unwrap(),
                EdgeBatch::new(200, vec![(1, 3)], vec![(0, 1)]).unwrap(),
                EdgeBatch::new(200, vec![], vec![(2, 4)]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let log = sample();
        let mut buf = Vec::new();
        log.write(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("OBFUDELTA v1 n=5 batches=3\n"), "{text}");
        assert_eq!(DeltaLog::read(&buf[..]).unwrap(), log);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("obf_evolve_log_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deltas.log");
        let log = sample();
        log.save(&path).unwrap();
        assert_eq!(DeltaLog::load(&path).unwrap(), log);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_applies_in_order() {
        let log = sample();
        let base = Graph::from_edges(5, &[(3, 4)]);
        let releases = log.replay(&base).unwrap();
        assert_eq!(releases.len(), 4);
        assert_eq!(
            *releases.last().unwrap(),
            Graph::from_edges(5, &[(3, 4), (1, 3)])
        );
        // Vertex-count mismatch is an error.
        assert!(log.replay(&Graph::empty(3)).is_err());
    }

    #[test]
    fn rejects_malformed_logs_with_line_numbers() {
        let cases: &[(&str, usize)] = &[
            ("", 1),
            ("NOPE v1 n=3 batches=0", 1),
            ("OBFUDELTA v9 n=3 batches=0", 1),
            ("OBFUDELTA v1 n=x batches=0", 1),
            ("OBFUDELTA v1 n=3 batches=0 extra", 1),
            ("OBFUDELTA v1 n=3 batches=1", 1),
            ("OBFUDELTA v1 n=3 batches=1\nbogus 1 +0 -0", 2),
            ("OBFUDELTA v1 n=3 batches=1\nbatch x +0 -0", 2),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0", 2),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0\n* 0 1", 3),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0\n+ 0 9", 3),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0\n+ 0 0", 3),
            (
                "OBFUDELTA v1 n=3 batches=2\nbatch 9 +1 -0\n+ 0 1\nbatch 3 +0 -0",
                4,
            ),
        ];
        for (text, want_line) in cases {
            match DeltaLog::read(text.as_bytes()) {
                Err(DeltaLogError::Invalid { line, .. }) => {
                    assert_eq!(line, *want_line, "log {text:?}");
                }
                other => panic!("log {text:?} gave {other:?}"),
            }
        }
    }
}
