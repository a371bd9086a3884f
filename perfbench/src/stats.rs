//! The benchmark's own arithmetic: order statistics, the tail
//! percentile with at least ten samples beyond it, failure shares, the
//! knee search over offered load, and run-to-run spread. Everything here
//! is pure so the unit tests below can pin it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of an unsorted sample (mean of the middle two for even
/// lengths); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// A tail order statistic: the nearest-rank value at `rank` (1-based)
/// of `count` sorted samples, so `count - rank` samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub rank: usize,
    pub count: usize,
}

impl Tail {
    /// The percentile the rank stands for, in `[0, 1]`.
    pub fn quantile(&self) -> f64 {
        self.rank as f64 / self.count as f64
    }
}

/// The highest percentile at or below `target` (e.g. 0.99) that still
/// has at least [`TAIL_BEYOND`] samples beyond it, by nearest rank.
/// `None` when there are too few samples for any such percentile.
pub fn tail(values: &[f64], target: f64) -> Option<Tail> {
    let count = values.len();
    if count <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank of the target percentile, in integers so that a
    // rounding error cannot move it past the ten-beyond limit.
    let per_mille = (target.clamp(0.0, 1.0) * 1000.0).round() as usize;
    let target_rank = (per_mille * count).div_ceil(1000).max(1);
    let rank = target_rank.min(count - TAIL_BEYOND);
    Some(Tail {
        value: v[rank - 1],
        rank,
        count,
    })
}

/// The tail of `values` if it has one, else its maximum: the figure a
/// workload with only a handful of operations per run reports.
pub fn tail_or_max(values: &[f64], target: f64) -> Option<f64> {
    tail(values, target)
        .map(|t| t.value)
        .or_else(|| values.iter().copied().max_by(f64::total_cmp))
}

/// The tail of a long latency stream, robust to one disturbed stretch:
/// `samples` are (time, latency) pairs over `[0, span)`, split into the
/// largest number of equal time windows that hold `per_window` samples
/// each on average; the result is the median over the windows of each
/// window's [`tail`] at `target`. With `per_window` ≥ 1000, every window's
/// p99 has ten samples beyond it.
pub fn windowed_tail(
    samples: &[(f64, f64)],
    span: f64,
    per_window: usize,
    target: f64,
) -> Option<f64> {
    let k = (samples.len() / per_window.max(1)).max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); k];
    for &(t, v) in samples {
        let i = ((t / span * k as f64) as usize).min(k - 1);
        windows[i].push(v);
    }
    let tails: Vec<f64> = windows
        .iter()
        .filter_map(|w| tail(w, target).map(|t| t.value))
        .collect();
    median(&tails)
}

/// Completion rates of a closed loop by time window: `starts` are the
/// send times of the completed requests over `[0, span)`, split into
/// `windows` equal windows; the result is each window's requests per
/// second. Their median is robust to one disturbed stretch.
pub fn window_rates(starts: &[f64], span: f64, windows: usize) -> Vec<f64> {
    if windows == 0 || span <= 0.0 {
        return Vec::new();
    }
    let mut counts = vec![0usize; windows];
    for &t in starts {
        let i = ((t / span * windows as f64) as usize).min(windows - 1);
        counts[i] += 1;
    }
    let width = span / windows as f64;
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Failed operations as a share of the operations attempted.
pub fn failed_share(attempted: u64, failed: u64) -> Option<f64> {
    (attempted > 0 && failed <= attempted).then(|| failed as f64 / attempted as f64)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check compares against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// What one offered-load point of an open loop measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Tail latency from scheduled send, in milliseconds (failed and
    /// unanswered requests count as infinitely late).
    pub tail_ms: f64,
    /// Requests still unanswered when the window closed.
    pub unanswered: usize,
    /// Time from the last scheduled send to the last reply, in ms.
    pub drain_ms: f64,
}

impl LoadPoint {
    /// Whether the point meets `limit_ms` without a growing backlog: the
    /// tail is within the limit, nothing was left unanswered, and the
    /// queue emptied within one limit of the last send.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && self.unanswered == 0 && self.drain_ms <= limit_ms
    }
}

/// Knee search: the highest offered rate (requests per second) whose
/// point meets `limit_ms`. Rates grow geometrically from `start` by
/// `growth` until a point fails or `max_rate` is reached, then
/// `refine` bisection steps narrow the gap between the last passing and
/// the first failing rate. Returns `None` when `start` itself fails.
pub fn find_knee(
    start: f64,
    growth: f64,
    max_rate: f64,
    refine: usize,
    limit_ms: f64,
    mut probe: impl FnMut(f64) -> LoadPoint,
) -> Option<f64> {
    assert!(
        start > 0.0 && growth > 1.0,
        "knee search needs start > 0, growth > 1"
    );
    if !probe(start).meets(limit_ms) {
        return None;
    }
    let mut pass = start;
    let mut fail = None;
    while pass < max_rate {
        let next = (pass * growth).min(max_rate);
        if probe(next).meets(limit_ms) {
            pass = next;
        } else {
            fail = Some(next);
            break;
        }
    }
    if let Some(mut fail) = fail {
        for _ in 0..refine {
            let mid = 0.5 * (pass + fail);
            if probe(mid).meets(limit_ms) {
                pass = mid;
            } else {
                fail = mid;
            }
        }
    }
    Some(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Too few samples: no percentile has ten beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, 0.99), None);
        assert_eq!(tail_or_max(&ten, 0.99), Some(10.0));
        // Eleven samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven, 0.99).unwrap();
        assert_eq!((t.value, t.rank, t.count), (1.0, 1, 11));
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand, 0.99).unwrap();
        assert_eq!((t.value, t.rank), (990.0, 990));
        assert_eq!(t.count - t.rank, TAIL_BEYOND);
        // 999 samples: p99's nearest rank (990) would leave nine beyond,
        // so the rule falls back to rank 989.
        let t = tail(&thousand[1..], 0.99).unwrap();
        assert_eq!(t.rank, 989);
        assert_eq!(t.count - t.rank, TAIL_BEYOND);
        // Plenty of samples: the target percentile itself.
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let t = tail(&big, 0.99).unwrap();
        assert_eq!(t.value, 99_000.0);
        assert!((t.quantile() - 0.99).abs() < 1e-12);
        // The median through the same rule.
        assert_eq!(tail(&big, 0.5).unwrap().value, 50_000.0);
    }

    #[test]
    fn tail_rule_holds_for_every_count() {
        for count in 11usize..2500 {
            let v: Vec<f64> = (0..count).map(|i| i as f64).collect();
            let t = tail(&v, 0.99).unwrap();
            assert!(t.count - t.rank >= TAIL_BEYOND, "count {count}");
            // Nearest rank of p99, unless that leaves fewer than ten beyond.
            assert_eq!(t.rank, (99 * count).div_ceil(100).min(count - TAIL_BEYOND));
        }
    }

    #[test]
    fn windowed_tail_ignores_one_disturbed_window() {
        // 10 000 samples over 10 s at 1 ms, except a stall in the last
        // second where every sample took 50 ms.
        let samples: Vec<(f64, f64)> = (0..10_000)
            .map(|i| {
                let t = i as f64 / 1000.0;
                (t, if t >= 9.0 { 50.0 } else { 1.0 })
            })
            .collect();
        assert_eq!(
            tail(&samples.iter().map(|s| s.1).collect::<Vec<_>>(), 0.99)
                .unwrap()
                .value,
            50.0
        );
        assert_eq!(windowed_tail(&samples, 10.0, 1000, 0.99), Some(1.0));
        // Fewer samples than a window: one window, the plain tail.
        assert_eq!(windowed_tail(&samples[..500], 10.0, 1000, 0.99), Some(1.0));
        assert_eq!(windowed_tail(&[], 10.0, 1000, 0.99), None);
    }

    #[test]
    fn window_rates_count_each_window() {
        // 1 s at 100 requests per second, with a stall in the last
        // quarter that only let 5 through.
        let mut starts: Vec<f64> = (0..75).map(|i| i as f64 / 100.0).collect();
        starts.extend((0..5).map(|i| 0.75 + i as f64 * 0.05));
        let rates = window_rates(&starts, 1.0, 4);
        assert_eq!(rates, vec![100.0, 100.0, 100.0, 20.0]);
        assert_eq!(median(&rates), Some(100.0));
        assert!(window_rates(&starts, 1.0, 0).is_empty());
        assert_eq!(window_rates(&[], 1.0, 2), vec![0.0, 0.0]);
    }

    #[test]
    fn failed_share_counts_against_attempted() {
        assert_eq!(failed_share(0, 0), None);
        assert_eq!(failed_share(5, 6), None);
        assert_eq!(failed_share(27, 0), Some(0.0));
        assert_eq!(failed_share(27, 17), Some(17.0 / 27.0));
        assert_eq!(failed_share(4, 4), Some(1.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    /// An M/M/1 queue's sojourn-time p99 at arrival rate `lambda` and
    /// service rate `mu`: `ln(100) / (mu - lambda)` seconds, unbounded
    /// (a growing backlog) at or past saturation.
    fn mm1(lambda: f64, mu: f64) -> LoadPoint {
        if lambda >= mu {
            return LoadPoint {
                tail_ms: f64::INFINITY,
                unanswered: 1,
                drain_ms: f64::INFINITY,
            };
        }
        let p99 = 1e3 * 100f64.ln() / (mu - lambda);
        LoadPoint {
            tail_ms: p99,
            unanswered: 0,
            drain_ms: p99,
        }
    }

    #[test]
    fn knee_found_on_synthetic_latency_curve() {
        let mu = 16_000.0;
        // p99 <= 10 ms  <=>  lambda <= mu - 100 ln(100).
        let exact = mu - 100.0 * 100f64.ln();
        let mut probes = 0;
        let knee = find_knee(1_600.0, 1.25, 100_000.0, 10, 10.0, |r| {
            probes += 1;
            mm1(r, mu)
        })
        .unwrap();
        assert!(knee <= exact, "knee {knee} past the exact {exact}");
        assert!(exact - knee < 0.002 * exact, "knee {knee} vs {exact}");
        assert!(probes <= 25, "{probes} probes");
    }

    #[test]
    fn knee_respects_backlog_and_bounds() {
        // Latency within the limit but a growing queue: not a pass.
        let growing = LoadPoint {
            tail_ms: 1.0,
            unanswered: 3,
            drain_ms: 1.0,
        };
        assert!(!growing.meets(10.0));
        assert_eq!(find_knee(100.0, 2.0, 1e6, 4, 10.0, |_| growing), None);
        // Never saturates below max_rate: the knee is the cap.
        let easy = |r: f64| mm1(r, 1e9);
        assert_eq!(find_knee(100.0, 2.0, 5_000.0, 4, 10.0, easy), Some(5_000.0));
    }
}
