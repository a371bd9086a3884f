//! The obfuscation algorithms (paper Section 5).
//!
//! [`generate_obfuscation`] is Algorithm 2: given a global uncertainty
//! level `σ` it selects the candidate set `E_C`, redistributes `σ` over
//! pairs in proportion to uniqueness (Eq. 7), draws truncated-normal
//! perturbations (with a `q` fraction of uniform white noise) and tests
//! the result against Definition 2; `t` independent trials are attempted.
//!
//! [`obfuscate`] is Algorithm 1: it doubles an upper bound `σ_u` until a
//! (k, ε)-obfuscation exists, then binary-searches `[0, σ_u]` for the
//! smallest `σ` that still succeeds, returning the last successful
//! obfuscation (the one with minimal σ, i.e. maximal utility).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use obf_graph::{AliasTable, FxHashMap, FxHashSet, Graph, Parallelism, VertexPair};
use obf_obs::metrics::labeled;
use obf_obs::{Histogram, Span};
use obf_stats::TruncatedNormal;
use obf_uncertain::degree_dist::DegreeDistMethod;
use obf_uncertain::UncertainGraph;

use crate::adversary::{AdversaryTable, DegreeProfile, ObfuscationCheck};
use crate::commonness::{CommonnessScores, ValueHistogram};
use crate::fastpath::{run_budgeted, MemoizedAdversary};
use crate::property::{DegreeProperty, VertexProperty};

/// Which Definition 2 check implementation Algorithm 2's line 20 uses.
///
/// The published graph, the minimal σ, and every other field of
/// [`ObfuscationResult`] are **bit-identical** between the two (the fast
/// path only skips work whose outcome is already decided — see
/// [`crate::fastpath`] and the equivalence tests); `FastPath` is simply
/// cheaper and is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckStrategy {
    /// Build the full adversary table and sweep every entropy column.
    Exhaustive,
    /// Memoized, support-truncated lazy rows with the budgeted
    /// early-exit sweep of [`crate::fastpath::run_budgeted`].
    #[default]
    FastPath,
}

/// Parameters of the obfuscation algorithm (paper Algorithms 1–2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObfuscationParams {
    /// Desired obfuscation level `k` (Definition 2).
    pub k: usize,
    /// Tolerance `ε`: fraction of vertices allowed to stay under-obfuscated.
    pub eps: f64,
    /// Candidate-set size multiplier `c` (`|E_C| = c·|E|`); the paper uses
    /// 2, falling back to 3 for hard instances.
    pub c: f64,
    /// White-noise level `q`: fraction of pairs whose perturbation is
    /// drawn uniformly from `[0, 1]` (paper: 0.01).
    pub q: f64,
    /// Trials per `σ` (paper: `t = 5`).
    pub t: usize,
    /// Initial upper bound `σ_u` for the doubling phase (paper: 1).
    pub sigma_init: f64,
    /// Binary-search resolution `δ`: the search stops when
    /// `σ_ℓ + δ ≥ σ_u`. The paper's reported minima (≈6e-8 = 2⁻²⁴ of the
    /// unit start) correspond to this default.
    pub delta: f64,
    /// Maximum doublings before giving up on finding an upper bound.
    pub max_doublings: u32,
    /// RNG seed (the algorithm is fully deterministic given the seed).
    pub seed: u64,
    /// Per-vertex degree-distribution method for the adversary table.
    pub method: DegreeDistMethod,
    /// Sharding configuration for the adversary-table rows and entropy
    /// columns (Definition 2's check). The published graph is identical
    /// for every thread count (see [`Parallelism`]).
    pub parallelism: Parallelism,
    /// Definition 2 check implementation (default: [`CheckStrategy::FastPath`]).
    pub check: CheckStrategy,
}

impl ObfuscationParams {
    /// Paper defaults (`c = 2`, `q = 0.01`, `t = 5`) for a given `(k, ε)`.
    pub fn new(k: usize, eps: f64) -> Self {
        Self {
            k,
            eps,
            c: 2.0,
            q: 0.01,
            t: 5,
            sigma_init: 1.0,
            delta: 6e-8,
            max_doublings: 16,
            seed: 0x0bf5,
            method: DegreeDistMethod::Auto { threshold: 64 },
            parallelism: Parallelism::available(),
            check: CheckStrategy::FastPath,
        }
    }

    /// Overrides the Definition 2 check implementation.
    pub fn with_check(mut self, check: CheckStrategy) -> Self {
        self.check = check;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count of [`ObfuscationParams::parallelism`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = self.parallelism.with_threads(threads);
        self
    }

    /// Overrides the candidate multiplier `c`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Overrides the white-noise level `q`.
    pub fn with_q(mut self, q: f64) -> Self {
        self.q = q;
        self
    }

    /// Overrides the trial count `t`.
    pub fn with_trials(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    fn validate(&self, n: usize) -> Result<(), ObfuscationError> {
        if self.k < 1 {
            return Err(ObfuscationError::BadParameter("k must be >= 1".into()));
        }
        if self.k > n.max(1) {
            return Err(ObfuscationError::BadParameter(format!(
                "k = {} exceeds the number of vertices {n}",
                self.k
            )));
        }
        if !(0.0..1.0).contains(&self.eps) {
            return Err(ObfuscationError::BadParameter(
                "eps must be in [0, 1)".into(),
            ));
        }
        if self.c < 1.0 {
            return Err(ObfuscationError::BadParameter("c must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.q) {
            return Err(ObfuscationError::BadParameter("q must be in [0,1]".into()));
        }
        if self.t == 0 {
            return Err(ObfuscationError::BadParameter("t must be >= 1".into()));
        }
        if self.sigma_init <= 0.0 || self.delta <= 0.0 {
            return Err(ObfuscationError::BadParameter(
                "sigma_init and delta must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Failure modes of the obfuscation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ObfuscationError {
    /// Invalid parameter combination.
    BadParameter(String),
    /// No (k, ε)-obfuscation found even after doubling `σ_u`
    /// `max_doublings` times; the paper resolves such cases by raising
    /// `c`. Under [`CheckStrategy::FastPath`], `best_eps` is the best
    /// *proven lower bound* across trials (aborted sweeps stop counting
    /// failures once the budget is exceeded).
    NoUpperBound { last_sigma: f64, best_eps: f64 },
}

impl std::fmt::Display for ObfuscationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObfuscationError::BadParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ObfuscationError::NoUpperBound {
                last_sigma,
                best_eps,
            } => write!(
                f,
                "no (k,eps)-obfuscation found up to sigma = {last_sigma} \
                 (best eps reached: {best_eps}); consider increasing c"
            ),
        }
    }
}

impl std::error::Error for ObfuscationError {}

/// Statistics of one `GenerateObfuscation` trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStats {
    /// Achieved ε̃ (fraction of under-obfuscated vertices). Exact for
    /// trials that met the ε tolerance; for failing trials under
    /// [`CheckStrategy::FastPath`] this is the *lower bound* established
    /// when the budgeted check aborted (still provably above ε).
    pub eps_achieved: f64,
    /// Candidate pairs that are original edges.
    pub kept_edges: usize,
    /// Candidate pairs that are added non-edges.
    pub added_pairs: usize,
    /// Original edges removed from `E_C` (certain deletions).
    pub removed_edges: usize,
}

/// Outcome of Algorithm 2 for one `σ`.
#[derive(Debug, Clone)]
pub struct GenerateOutcome {
    /// The best trial's uncertain graph, if any trial met `ε`.
    pub graph: Option<UncertainGraph>,
    /// Best achieved ε̃ among successful trials (∞ if none succeeded).
    pub eps_achieved: f64,
    /// Per-trial statistics.
    pub trials: Vec<TrialStats>,
}

impl GenerateOutcome {
    /// True when some trial produced a (k, ε)-obfuscation.
    pub fn succeeded(&self) -> bool {
        self.graph.is_some()
    }
}

/// Result of the full Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct ObfuscationResult {
    /// The published uncertain graph.
    pub graph: UncertainGraph,
    /// The minimal global σ that produced it.
    pub sigma: f64,
    /// The achieved ε̃ (≤ the requested ε).
    pub eps_achieved: f64,
    /// Number of doubling steps used to find the upper bound.
    pub doublings: u32,
    /// Number of binary-search iterations.
    pub search_steps: u32,
    /// Total `GenerateObfuscation` invocations.
    pub generate_calls: u32,
}

/// Which phase of Algorithm 1 a σ candidate belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchPhase {
    /// Lines 1–6: doubling σ_u until an obfuscation exists.
    #[default]
    Doubling,
    /// Lines 8–12: binary search of `[0, σ_u]`.
    BinarySearch,
}

/// Instrumentation of one candidate σ of the Algorithm 1 search: one
/// `GenerateObfuscation` invocation (`t` trials).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SigmaCandidateStats {
    /// The candidate σ.
    pub sigma: f64,
    /// Phase the candidate was tried in.
    pub phase: SearchPhase,
    /// Whether some trial met the ε tolerance.
    pub accepted: bool,
    /// Wall-clock seconds of the whole invocation.
    pub secs: f64,
    /// Trials run (`= params.t`).
    pub trials: u32,
    /// Adversary tables instantiated (one per trial).
    pub table_builds: u64,
    /// Lemma 1 row evaluations actually run (exact DP or CLT row).
    pub dp_evaluations: u64,
    /// Vertex rows the entropy sweeps needed (each vertex at most once
    /// per table); the gap to `dp_evaluations` is served by the
    /// identical-row memo cache, and the gap to `vertices × table_builds`
    /// is rows the early exits never needed at all.
    pub rows_requested: u64,
    /// Entropy columns actually computed across the trials.
    pub columns_evaluated: u64,
    /// Entropy columns a full sweep would compute (distinct degrees ×
    /// trials).
    pub columns_total: u64,
    /// Columns rejected by the zero-DP support precheck.
    pub support_skipped_columns: u64,
    /// Trials whose budgeted check exited before resolving every column.
    pub early_exit_trials: u64,
}

impl SigmaCandidateStats {
    /// Rows served from the identical-row cache instead of a fresh DP.
    pub fn dp_cache_hits(&self) -> u64 {
        self.rows_requested - self.dp_evaluations
    }
}

/// Instrumentation of a full Algorithm 1 run — per-candidate timings and
/// cache/early-exit counters of the σ-search fast path. Every counter is
/// deterministic for a fixed seed and thread count-independent; only
/// `secs` varies between runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SigmaSearchStats {
    /// Vertices of the input graph (the per-table baseline for
    /// [`SigmaSearchStats::naive_dp_evaluations`]).
    pub num_vertices: usize,
    /// One entry per `GenerateObfuscation` invocation, in search order.
    pub candidates: Vec<SigmaCandidateStats>,
}

impl SigmaSearchStats {
    /// Candidate σ values tried (doubling + binary search).
    pub fn candidates_tried(&self) -> u32 {
        self.candidates.len() as u32
    }

    /// Total wall-clock seconds across candidates.
    pub fn total_secs(&self) -> f64 {
        self.candidates.iter().map(|c| c.secs).sum()
    }

    /// Total Lemma 1 row evaluations.
    pub fn dp_evaluations(&self) -> u64 {
        self.candidates.iter().map(|c| c.dp_evaluations).sum()
    }

    /// Total rows requested by entropy sweeps.
    pub fn rows_requested(&self) -> u64 {
        self.candidates.iter().map(|c| c.rows_requested).sum()
    }

    /// Total rows served by the identical-row cache.
    pub fn dp_cache_hits(&self) -> u64 {
        self.rows_requested() - self.dp_evaluations()
    }

    /// Fraction of requested rows served without a DP (0 when nothing
    /// was requested).
    pub fn dp_cache_hit_rate(&self) -> f64 {
        let req = self.rows_requested();
        if req == 0 {
            0.0
        } else {
            self.dp_cache_hits() as f64 / req as f64
        }
    }

    /// Row evaluations the pre-fast-path engine would have run: every
    /// vertex, for every adversary table ever built.
    pub fn naive_dp_evaluations(&self) -> u64 {
        self.num_vertices as u64 * self.candidates.iter().map(|c| c.table_builds).sum::<u64>()
    }

    /// Total entropy columns computed / total a full sweep would compute.
    pub fn columns(&self) -> (u64, u64) {
        (
            self.candidates.iter().map(|c| c.columns_evaluated).sum(),
            self.candidates.iter().map(|c| c.columns_total).sum(),
        )
    }

    /// Trials that exited before resolving every column.
    pub fn early_exit_trials(&self) -> u64 {
        self.candidates.iter().map(|c| c.early_exit_trials).sum()
    }
}

/// σ-independent state of one Algorithm 1 search, computed once and
/// reused by every candidate σ (the "search-state reuse" leg of the fast
/// path): the per-vertex property values and their sorted histogram
/// (only the kernel θ = σ changes per candidate), the original graph's
/// degree profile for the Definition 2 check, and the span histograms,
/// resolved once so no trial takes a registry lookup.
struct SearchContext {
    property: DegreeProperty,
    per_vertex: Vec<f64>,
    histogram: ValueHistogram,
    profile: DegreeProfile,
    spans: SearchSpans,
}

impl SearchContext {
    fn new(g: &Graph) -> Self {
        let property = DegreeProperty;
        let per_vertex = property.values(g);
        let histogram = ValueHistogram::new(&per_vertex);
        let profile = DegreeProfile::new(g);
        Self {
            property,
            per_vertex,
            histogram,
            profile,
            spans: SearchSpans::resolve(),
        }
    }
}

/// Global-registry histograms of the σ search: one per candidate σ and
/// one per Algorithm 2 trial phase. Durations feed only these histograms
/// and [`SigmaCandidateStats::secs`] — never a published bit.
struct SearchSpans {
    candidate: Arc<Histogram>,
    select: Arc<Histogram>,
    noise: Arc<Histogram>,
    build: Arc<Histogram>,
    check: Arc<Histogram>,
}

impl SearchSpans {
    fn resolve() -> Self {
        let registry = obf_obs::global();
        let phase = |name: &str| {
            registry.histogram(&labeled("obf_core_trial_phase_micros", &[("phase", name)]))
        };
        Self {
            candidate: registry.histogram("obf_core_candidate_check_micros"),
            select: phase("select"),
            noise: phase("noise"),
            build: phase("build"),
            check: phase("check"),
        }
    }
}

/// Algorithm 2: attempts to produce a (k, ε)-obfuscation of `g` at global
/// uncertainty `σ`, using `t` randomized trials.
pub fn generate_obfuscation(
    g: &Graph,
    params: &ObfuscationParams,
    sigma: f64,
    rng: &mut SmallRng,
) -> GenerateOutcome {
    generate_obfuscation_with_excluded(g, params, sigma, &[], rng)
}

/// Algorithm 2 with a caller-supplied part of the exclusion set `H`
/// (paper Section 5.3: "The algorithm could also receive H, or part of H,
/// as an input, instead of fully selecting it on its own"). The supplied
/// vertices are excluded from noise injection unconditionally; the
/// algorithm tops the set up to `⌈ε/2·n⌉` with the most unique remaining
/// vertices.
pub fn generate_obfuscation_with_excluded(
    g: &Graph,
    params: &ObfuscationParams,
    sigma: f64,
    forced_excluded: &[u32],
    rng: &mut SmallRng,
) -> GenerateOutcome {
    let ctx = SearchContext::new(g);
    let mut scratch = SigmaCandidateStats::default();
    generate_in_context(g, &ctx, params, sigma, forced_excluded, rng, &mut scratch)
}

/// Algorithm 2 against a prebuilt [`SearchContext`], recording check
/// instrumentation into `stats`. This is the per-candidate body of the σ
/// search: everything σ-independent lives in `ctx`.
fn generate_in_context(
    g: &Graph,
    ctx: &SearchContext,
    params: &ObfuscationParams,
    sigma: f64,
    forced_excluded: &[u32],
    rng: &mut SmallRng,
    stats: &mut SigmaCandidateStats,
) -> GenerateOutcome {
    let n = g.num_vertices();
    let m = g.num_edges();

    // Line 1: σ-uniqueness of every vertex (θ = σ, Section 5.2). Only the
    // kernel pass depends on σ; the value histogram comes from `ctx`.
    let scores = CommonnessScores::from_histogram(&ctx.histogram, &ctx.property, sigma.max(1e-300));
    let uniq = scores.vertex_uniqueness(&ctx.per_vertex);

    // Line 2: H = the ⌈ε/2·n⌉ most unique vertices, excluded from noise;
    // caller-forced members take priority.
    let h_size = ((params.eps / 2.0) * n as f64).ceil() as usize;
    let mut h_set: Vec<u32> = forced_excluded.to_vec();
    h_set.sort_unstable();
    h_set.dedup();
    if h_set.len() < h_size.min(n) {
        let forced: obf_graph::FxHashSet<u32> = h_set.iter().copied().collect();
        for v in uniq.top_unique(h_size.min(n)) {
            if h_set.len() >= h_size.min(n) {
                break;
            }
            if !forced.contains(&v) {
                h_set.push(v);
            }
        }
    }

    // Line 3: Q(v) ∝ U_σ(P(v)) on V \ H.
    let q_weights = uniq.q_weights(&h_set);
    let total_q: f64 = q_weights.iter().sum();
    let alias = if total_q > 0.0 && q_weights.iter().any(|&w| w > 0.0) {
        Some(AliasTable::new(&q_weights))
    } else {
        None
    };

    let target_ec = ((params.c * m as f64).round() as usize).max(m);
    let mut best: Option<(f64, UncertainGraph)> = None;
    let mut trials = Vec::with_capacity(params.t);
    // One sampler per distinct σ(e) of a trial: σ(e) depends on a pair
    // only through its endpoints' uniqueness, so it takes few values.
    // Only looked up, never iterated.
    let mut samplers: FxHashMap<u64, TruncatedNormal> = FxHashMap::default();

    for _trial in 0..params.t {
        // Lines 6–12: select E_C, in lexicographic order, with a flag per
        // pair telling original edges from added non-edges.
        let span = Span::start_in(Arc::clone(&ctx.spans.select));
        let (ec, removed_edges) = select_candidates(g, target_ec, alias.as_ref(), rng);
        span.finish();

        // Line 14: per-pair σ(e) (Eq. 7), proportional to pair uniqueness.
        let span = Span::start_in(Arc::clone(&ctx.spans.noise));
        let pair_uniqueness: Vec<f64> = ec
            .iter()
            .map(|(p, _)| (uniq.of(p.lo()) + uniq.of(p.hi())) / 2.0)
            .collect();
        let uniq_total: f64 = pair_uniqueness.iter().sum();

        // Lines 13–19: draw perturbations and assign probabilities.
        samplers.clear();
        let mut kept_edges = 0usize;
        let mut added_pairs = 0usize;
        let mut candidates: Vec<(u32, u32, f64)> = Vec::with_capacity(ec.len());
        for (&(pair, is_edge), &u_e) in ec.iter().zip(&pair_uniqueness) {
            let sigma_e = if uniq_total > 0.0 {
                (sigma * ec.len() as f64 * u_e / uniq_total).max(1e-12)
            } else {
                sigma.max(1e-12)
            };
            let r_e = if rng.gen::<f64>() < params.q {
                rng.gen::<f64>()
            } else {
                samplers
                    .entry(sigma_e.to_bits())
                    .or_insert_with(|| TruncatedNormal::new(sigma_e))
                    .sample(rng)
            };
            let p = if is_edge {
                kept_edges += 1;
                1.0 - r_e
            } else {
                added_pairs += 1;
                r_e
            };
            candidates.push((pair.lo(), pair.hi(), p));
        }
        span.finish();

        let span = Span::start_in(Arc::clone(&ctx.spans.build));
        let ug = UncertainGraph::new(n, candidates).expect("valid candidate set");
        span.finish();

        // Line 20: ε' = fraction of vertices not k-obfuscated — the
        // Algorithm 2 hot path. Both strategies shard rows and entropy
        // columns over contiguous vertex ranges and give bit-identical
        // verdicts; the fast path additionally memoizes identical rows,
        // truncates the DP support at max_deg(G), and aborts the sweep
        // once the ε budget is decided (see `crate::fastpath`).
        let span = Span::start_in(Arc::clone(&ctx.spans.check));
        let (eps_trial, passed) = match params.check {
            CheckStrategy::Exhaustive => {
                let table = AdversaryTable::build_par(&ug, params.method, &params.parallelism);
                let check = ObfuscationCheck::run_with_profile(
                    &ctx.profile,
                    &table,
                    params.k,
                    &params.parallelism,
                );
                stats.dp_evaluations += n as u64;
                stats.rows_requested += n as u64;
                stats.columns_evaluated += ctx.profile.distinct().len() as u64;
                (check.eps_achieved, check.satisfies(params.eps))
            }
            CheckStrategy::FastPath => {
                let mut adv = MemoizedAdversary::new(
                    &ug,
                    params.method,
                    ctx.profile.max_degree(),
                    &params.parallelism,
                );
                let verdict = run_budgeted(
                    &ctx.profile,
                    &mut adv,
                    params.k,
                    params.eps,
                    true,
                    &params.parallelism,
                );
                stats.dp_evaluations += adv.dp_evaluations();
                stats.rows_requested += adv.rows_requested();
                stats.columns_evaluated += verdict.columns_evaluated as u64;
                stats.support_skipped_columns += verdict.support_only_failures as u64;
                if verdict.early_exit {
                    stats.early_exit_trials += 1;
                }
                // Satisfying verdicts always carry the exact ε̃ (the
                // budgeted check ran with `need_exact`); aborted failing
                // sweeps report the proven lower bound.
                let eps_trial = verdict
                    .eps_exact
                    .unwrap_or(verdict.failed_at_least as f64 / n.max(1) as f64);
                (eps_trial, verdict.satisfies)
            }
        };
        span.finish();
        stats.table_builds += 1;
        stats.columns_total += ctx.profile.distinct().len() as u64;
        trials.push(TrialStats {
            eps_achieved: eps_trial,
            kept_edges,
            added_pairs,
            removed_edges,
        });

        // Line 21: keep the best trial meeting ε.
        if passed && best.as_ref().is_none_or(|(e, _)| eps_trial < *e) {
            best = Some((eps_trial, ug));
        }
    }

    match best {
        Some((eps, graph)) => GenerateOutcome {
            graph: Some(graph),
            eps_achieved: eps,
            trials,
        },
        None => GenerateOutcome {
            graph: None,
            eps_achieved: f64::INFINITY,
            trials,
        },
    }
}

/// Algorithm 2 lines 6–12: starting from `E_C = E`, repeatedly draw a
/// vertex pair from `Q × Q`; drawing an existing edge removes it (certain
/// deletion), a non-edge is added as a candidate; stop at `|E_C| =
/// target`. Only the changes to `E` are tracked: `E_C = (E \ removed) ∪
/// added`, merged in lexicographic order from the sorted adjacency and
/// the sorted `added`. Returns each candidate pair with whether it is an
/// original edge, and the number of removed original edges. With no
/// sampleable vertices (`alias` is `None`) `E_C` stays `E`.
fn select_candidates(
    g: &Graph,
    target: usize,
    alias: Option<&AliasTable>,
    rng: &mut SmallRng,
) -> (Vec<(VertexPair, bool)>, usize) {
    let m = g.num_edges();
    let mut added: FxHashSet<VertexPair> = FxHashSet::default();
    added.reserve(target.saturating_sub(m));
    let mut removed: FxHashSet<VertexPair> = FxHashSet::default();
    if let Some(alias) = alias {
        // Safety valve: the expected number of draws is ~(target - |E|)
        // plus a small correction for collisions; a generous multiple
        // covers skewed Q.
        let max_draws = 200usize
            .saturating_add(target.saturating_mul(50))
            .saturating_add(m.saturating_mul(50));
        let mut draws = 0usize;
        while m - removed.len() + added.len() != target {
            draws += 1;
            if draws > max_draws {
                // Could not reach the target (e.g. dense graph with few
                // non-edges among sampleable vertices); proceed with what
                // we have — the trial's ε̃ test still gates correctness.
                break;
            }
            let u = alias.sample(rng);
            let v = alias.sample(rng);
            if u == v {
                continue;
            }
            let pair = VertexPair::new(u, v);
            if g.has_edge(u, v) {
                removed.insert(pair);
            } else {
                added.insert(pair);
            }
        }
    }
    let mut sorted: Vec<VertexPair> = added.into_iter().collect(); // audit:allow(map-iter, sorted on the next line; nothing order-dependent happens between collect and sort)
    sorted.sort_unstable();
    let mut ec = Vec::with_capacity(m - removed.len() + sorted.len());
    let mut sorted = sorted.into_iter().peekable();
    for edge in g.edge_pairs() {
        while let Some(pair) = sorted.next_if(|&pair| pair < edge) {
            ec.push((pair, false));
        }
        if !removed.contains(&edge) {
            ec.push((edge, true));
        }
    }
    ec.extend(sorted.map(|pair| (pair, false)));
    (ec, removed.len())
}

/// Algorithm 1: finds the minimal `σ` for which Algorithm 2 produces a
/// (k, ε)-obfuscation, via doubling and binary search.
pub fn obfuscate(
    g: &Graph,
    params: &ObfuscationParams,
) -> Result<ObfuscationResult, ObfuscationError> {
    obfuscate_with_stats(g, params).map(|(result, _)| result)
}

/// [`obfuscate`] with the σ-search instrumentation: per-candidate
/// timings, adversary-row DP/cache counters, and early-exit counts (see
/// [`SigmaSearchStats`]). The [`ObfuscationResult`] is identical to
/// [`obfuscate`]'s.
///
/// # Examples
///
/// ```
/// use obf_core::{obfuscate_with_stats, ObfuscationParams};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let g = obf_graph::generators::erdos_renyi_gnm(200, 500, &mut rng);
/// let mut params = ObfuscationParams::new(5, 0.05).with_seed(7).with_trials(2);
/// params.delta = 1e-2;
/// let (result, stats) = obfuscate_with_stats(&g, &params).expect("obfuscation found");
/// assert_eq!(stats.candidates_tried(), result.generate_calls);
/// // The fast path never runs more row DPs than the naive engine would.
/// assert!(stats.dp_evaluations() <= stats.naive_dp_evaluations());
/// ```
pub fn obfuscate_with_stats(
    g: &Graph,
    params: &ObfuscationParams,
) -> Result<(ObfuscationResult, SigmaSearchStats), ObfuscationError> {
    params.validate(g.num_vertices())?;
    let ctx = SearchContext::new(g);
    let mut stats = SigmaSearchStats {
        num_vertices: g.num_vertices(),
        candidates: Vec::new(),
    };
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut generate_calls = 0u32;

    let run_candidate =
        |sigma: f64, phase: SearchPhase, rng: &mut SmallRng, stats: &mut SigmaSearchStats| {
            let mut cand = SigmaCandidateStats {
                sigma,
                phase,
                trials: params.t as u32,
                ..Default::default()
            };
            // Span duration feeds only SigmaCandidateStats.secs and the
            // obf_core_candidate_check_micros histogram — instrumentation
            // excluded from every digest and equivalence check.
            let span = Span::start_in(Arc::clone(&ctx.spans.candidate));
            let out = generate_in_context(g, &ctx, params, sigma, &[], rng, &mut cand);
            cand.secs = span.finish_secs();
            cand.accepted = out.succeeded();
            stats.candidates.push(cand);
            out
        };

    // Doubling phase (lines 1–6).
    let mut sigma_u = params.sigma_init;
    let mut doublings = 0u32;
    let mut best_eps_seen = f64::INFINITY;
    let found: (f64, f64, UncertainGraph) = loop {
        let out = run_candidate(sigma_u, SearchPhase::Doubling, &mut rng, &mut stats);
        generate_calls += 1;
        let min_trial_eps = out
            .trials
            .iter()
            .map(|t| t.eps_achieved)
            .fold(f64::INFINITY, f64::min);
        best_eps_seen = best_eps_seen.min(min_trial_eps);
        if let Some(graph) = out.graph {
            break (sigma_u, out.eps_achieved, graph);
        }
        if doublings >= params.max_doublings {
            return Err(ObfuscationError::NoUpperBound {
                last_sigma: sigma_u,
                best_eps: best_eps_seen,
            });
        }
        sigma_u *= 2.0;
        doublings += 1;
    };
    let (mut sigma_u, mut best_eps, mut best_graph) = found;

    // Binary search (lines 8–12).
    let mut sigma_l = 0.0f64;
    let mut search_steps = 0u32;
    let mut best_sigma = sigma_u;
    while sigma_l + params.delta < sigma_u {
        let sigma = 0.5 * (sigma_l + sigma_u);
        let out = run_candidate(sigma, SearchPhase::BinarySearch, &mut rng, &mut stats);
        generate_calls += 1;
        search_steps += 1;
        if let Some(graph) = out.graph {
            best_graph = graph;
            best_eps = out.eps_achieved;
            best_sigma = sigma;
            sigma_u = sigma;
        } else {
            sigma_l = sigma;
        }
    }

    Ok((
        ObfuscationResult {
            graph: best_graph,
            sigma: best_sigma,
            eps_achieved: best_eps,
            doublings,
            search_steps,
            generate_calls,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_graph::{generators, GraphBuilder};
    use proptest::prelude::*;

    /// The clone-and-sort selection [`select_candidates`] replaced: grow
    /// a copy of all of `E` to the target, then collect and sort it.
    fn select_candidates_oracle(
        g: &Graph,
        target: usize,
        alias: Option<&AliasTable>,
        rng: &mut SmallRng,
    ) -> (Vec<VertexPair>, usize) {
        let mut ec: FxHashSet<VertexPair> = g.edge_pairs().collect();
        let mut removed = 0usize;
        if let Some(alias) = alias {
            let max_draws = 200usize
                .saturating_add(target.saturating_mul(50))
                .saturating_add(g.num_edges().saturating_mul(50));
            let mut draws = 0usize;
            while ec.len() != target {
                draws += 1;
                if draws > max_draws {
                    break;
                }
                let u = alias.sample(rng);
                let v = alias.sample(rng);
                if u == v {
                    continue;
                }
                let pair = VertexPair::new(u, v);
                if g.has_edge(u, v) {
                    if ec.remove(&pair) {
                        removed += 1;
                    }
                } else {
                    ec.insert(pair);
                }
            }
        }
        let mut pairs: Vec<VertexPair> = ec.into_iter().collect();
        pairs.sort_unstable();
        (pairs, removed)
    }

    fn arb_selection_input() -> impl Strategy<Value = (Graph, Vec<f64>, f64, u64)> {
        (3usize..40).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n),
                proptest::collection::vec(0u32..4, n),
                1.0f64..4.0,
                any::<u64>(),
            )
                .prop_map(move |(edges, weights, c, seed)| {
                    let mut b = GraphBuilder::new(n);
                    for (u, v) in edges {
                        if u != v {
                            b.add_edge(u, v);
                        }
                    }
                    let weights = weights.into_iter().map(f64::from).collect();
                    (b.build(), weights, c, seed)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn selection_matches_clone_and_sort_oracle(input in arb_selection_input()) {
            // Zero weights model H; all-zero weights the degenerate
            // graph with nothing sampleable. A c beyond what the
            // sampleable pairs can supply exercises the draw cap.
            let (g, weights, c, seed) = input;
            let alias = weights.iter().any(|&w| w > 0.0).then(|| AliasTable::new(&weights));
            let m = g.num_edges();
            let target = ((c * m as f64).round() as usize).max(m);
            let mut rng = SmallRng::seed_from_u64(seed);
            let (ec, removed) = select_candidates(&g, target, alias.as_ref(), &mut rng);
            let mut oracle_rng = SmallRng::seed_from_u64(seed);
            let (oracle, oracle_removed) =
                select_candidates_oracle(&g, target, alias.as_ref(), &mut oracle_rng);
            let pairs: Vec<VertexPair> = ec.iter().map(|&(p, _)| p).collect();
            prop_assert_eq!(pairs, oracle);
            for &(p, is_edge) in &ec {
                prop_assert_eq!(is_edge, g.has_edge(p.lo(), p.hi()));
            }
            prop_assert_eq!(removed, oracle_removed);
            prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
        }
    }

    fn test_params(k: usize, eps: f64) -> ObfuscationParams {
        // Faster search for tests: coarser delta, fewer trials.
        let mut p = ObfuscationParams::new(k, eps).with_seed(42).with_threads(2);
        p.delta = 1e-3;
        p.t = 3;
        p
    }

    #[test]
    fn obfuscates_random_regularish_graph() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::erdos_renyi_gnm(300, 900, &mut rng);
        let params = test_params(10, 0.05);
        let res = obfuscate(&g, &params).expect("found obfuscation");
        assert!(res.eps_achieved <= 0.05);
        assert!(res.sigma > 0.0);
        // The certificate must hold when re-verified from scratch.
        let table = AdversaryTable::build(&res.graph, DegreeDistMethod::Exact);
        let check = ObfuscationCheck::run(&g, &table, 10, &Parallelism::sequential());
        assert!(
            check.eps_achieved <= 0.05 + 1e-12,
            "recheck eps = {}",
            check.eps_achieved
        );
    }

    #[test]
    fn candidate_set_size_hits_target() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::erdos_renyi_gnm(200, 400, &mut rng);
        let params = test_params(5, 0.05);
        let out = generate_obfuscation(&g, &params, 0.1, &mut rng);
        for t in &out.trials {
            assert_eq!(
                t.kept_edges + t.added_pairs,
                (params.c * g.num_edges() as f64).round() as usize,
                "|E_C| must be c|E|"
            );
        }
    }

    #[test]
    fn probabilities_oriented_correctly() {
        // With small q and tiny sigma, kept edges get p ≈ 1 and added pairs
        // get p ≈ 0.
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::erdos_renyi_gnm(100, 200, &mut rng);
        let mut params = test_params(2, 0.2);
        params.q = 0.0;
        let out = generate_obfuscation(&g, &params, 1e-6, &mut rng);
        // Inspect any trial graph — even failing trials are informative,
        // so re-run the pieces manually if no trial passed.
        if let Some(ug) = out.graph {
            for &(u, v, p) in ug.candidates() {
                if g.has_edge(u, v) {
                    assert!(p > 0.99, "kept edge ({u},{v}) p={p}");
                } else {
                    assert!(p < 0.01, "added pair ({u},{v}) p={p}");
                }
            }
        }
    }

    #[test]
    fn excluded_vertices_receive_no_new_pairs() {
        // H vertices must not be endpoints of added pairs or removals.
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::barabasi_albert(150, 3, &mut rng);
        let mut params = test_params(5, 0.2);
        params.eps = 0.2;
        let sigma = 0.05;
        // Recompute H exactly as the algorithm does.
        let property = DegreeProperty;
        let per_vertex = property.values(&g);
        let scores = CommonnessScores::from_values(&per_vertex, &property, sigma);
        let uniq = scores.vertex_uniqueness(&per_vertex);
        let h_size = ((params.eps / 2.0) * g.num_vertices() as f64).ceil() as usize;
        let h: std::collections::HashSet<u32> = uniq.top_unique(h_size).into_iter().collect();

        let out = generate_obfuscation(&g, &params, sigma, &mut rng);
        if let Some(ug) = out.graph {
            for &(u, v, _) in ug.candidates() {
                if !g.has_edge(u, v) {
                    assert!(
                        !h.contains(&u) && !h.contains(&v),
                        "added pair touches H: ({u},{v})"
                    );
                }
            }
            // Removed edges: E \ E_C must avoid H too.
            let in_ec: std::collections::HashSet<(u32, u32)> =
                ug.candidates().iter().map(|&(u, v, _)| (u, v)).collect();
            for (u, v) in g.edges() {
                if !in_ec.contains(&(u, v)) {
                    assert!(
                        !h.contains(&u) && !h.contains(&v),
                        "removed edge touches H: ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::erdos_renyi_gnm(120, 240, &mut rng);
        let params = test_params(5, 0.1);
        let a = obfuscate(&g, &params).unwrap();
        let b = obfuscate(&g, &params).unwrap();
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn harder_privacy_needs_more_noise() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::barabasi_albert(400, 3, &mut rng);
        let easy = obfuscate(&g, &test_params(5, 0.1)).unwrap();
        let hard = obfuscate(&g, &test_params(40, 0.1)).unwrap();
        assert!(
            hard.sigma >= easy.sigma,
            "easy={} hard={}",
            easy.sigma,
            hard.sigma
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::cycle(10);
        assert!(matches!(
            obfuscate(&g, &ObfuscationParams::new(0, 0.1)),
            Err(ObfuscationError::BadParameter(_))
        ));
        assert!(matches!(
            obfuscate(&g, &ObfuscationParams::new(100, 0.1)),
            Err(ObfuscationError::BadParameter(_))
        ));
        let mut p = ObfuscationParams::new(2, 0.1);
        p.c = 0.5;
        assert!(matches!(
            obfuscate(&g, &p),
            Err(ObfuscationError::BadParameter(_))
        ));
        let mut p = ObfuscationParams::new(2, 0.1);
        p.eps = 1.5;
        assert!(matches!(
            obfuscate(&g, &p),
            Err(ObfuscationError::BadParameter(_))
        ));
    }

    #[test]
    fn impossible_instance_reports_no_upper_bound() {
        // k close to n with eps = 0 on a tiny star: the hub can never hide.
        let g = generators::star(6);
        let mut params = test_params(6, 0.0);
        params.max_doublings = 3;
        params.t = 1;
        match obfuscate(&g, &params) {
            Err(ObfuscationError::NoUpperBound { .. }) => {}
            other => panic!("expected NoUpperBound, got {other:?}"),
        }
    }

    #[test]
    fn trial_stats_are_consistent() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::erdos_renyi_gnm(100, 200, &mut rng);
        let params = test_params(3, 0.1);
        let out = generate_obfuscation(&g, &params, 0.05, &mut rng);
        assert_eq!(out.trials.len(), params.t);
        for t in &out.trials {
            assert!(t.kept_edges <= g.num_edges());
            assert_eq!(g.num_edges() - t.kept_edges, t.removed_edges);
        }
    }

    #[test]
    fn forced_h_vertices_are_untouched() {
        // Supplying part of H (paper Section 5.3) must keep those vertices
        // out of all noise injection, regardless of their uniqueness.
        let mut rng = SmallRng::seed_from_u64(10);
        let g = generators::erdos_renyi_gnm(150, 300, &mut rng);
        let forced = [3u32, 77, 141];
        let params = test_params(3, 0.2);
        let out = super::generate_obfuscation_with_excluded(&g, &params, 0.05, &forced, &mut rng);
        if let Some(ug) = out.graph {
            let in_ec: std::collections::HashSet<(u32, u32)> =
                ug.candidates().iter().map(|&(u, v, _)| (u, v)).collect();
            for &(u, v, _) in ug.candidates() {
                if !g.has_edge(u, v) {
                    assert!(!forced.contains(&u) && !forced.contains(&v));
                }
            }
            for (u, v) in g.edges() {
                if !in_ec.contains(&(u, v)) {
                    assert!(!forced.contains(&u) && !forced.contains(&v));
                }
            }
        }
    }

    #[test]
    fn fast_path_bit_identical_to_exhaustive_search() {
        // The ISSUE acceptance bar: same σ, same published probabilities,
        // same search trajectory for a fixed seed, fast path or not.
        for (n, m, k, eps, seed) in [
            (150, 400, 5usize, 0.1, 11u64),
            (200, 380, 8, 0.05, 12),
            (90, 300, 3, 0.2, 13),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = generators::erdos_renyi_gnm(n, m, &mut rng);
            let params = test_params(k, eps);
            let fast = obfuscate(&g, &params.with_check(CheckStrategy::FastPath)).unwrap();
            let slow = obfuscate(&g, &params.with_check(CheckStrategy::Exhaustive)).unwrap();
            assert_eq!(fast.sigma, slow.sigma);
            assert_eq!(fast.eps_achieved, slow.eps_achieved);
            assert_eq!(fast.graph, slow.graph);
            assert_eq!(fast.doublings, slow.doublings);
            assert_eq!(fast.search_steps, slow.search_steps);
            assert_eq!(fast.generate_calls, slow.generate_calls);
        }
    }

    #[test]
    fn sigma_search_stats_show_the_fast_path_working() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = generators::barabasi_albert(250, 3, &mut rng);
        let params = test_params(10, 0.05);
        let (result, stats) = obfuscate_with_stats(&g, &params).unwrap();
        assert_eq!(stats.candidates_tried(), result.generate_calls);
        assert_eq!(stats.num_vertices, g.num_vertices());
        // Every candidate ran t trials and built t lazy tables.
        for c in &stats.candidates {
            assert_eq!(c.trials, params.t as u32);
            assert_eq!(c.table_builds, params.t as u64);
            assert!(c.rows_requested >= c.dp_evaluations);
        }
        // The accepted/rejected split matches the search trajectory.
        let accepted = stats.candidates.iter().filter(|c| c.accepted).count();
        assert!(accepted >= 1, "at least the doubling success is accepted");
        // The fast path must beat the naive engine (vertices × tables):
        // aborted sweeps, support-skipped hubs and memo hits all shrink it.
        assert!(
            stats.dp_evaluations() < stats.naive_dp_evaluations(),
            "dp {} !< naive {}",
            stats.dp_evaluations(),
            stats.naive_dp_evaluations()
        );
        let (cols_eval, cols_total) = stats.columns();
        assert!(cols_eval <= cols_total);
        assert!(stats.total_secs() > 0.0);
        assert_eq!(
            stats.dp_cache_hits(),
            stats.rows_requested() - stats.dp_evaluations()
        );
    }

    #[test]
    fn binary_search_shrinks_sigma() {
        // The returned sigma must be no larger than the first successful
        // upper bound (sigma_init doubled `doublings` times).
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::erdos_renyi_gnm(200, 600, &mut rng);
        let params = test_params(5, 0.1);
        let res = obfuscate(&g, &params).unwrap();
        let upper = params.sigma_init * 2f64.powi(res.doublings as i32);
        assert!(res.sigma <= upper);
        assert!(res.search_steps > 0);
    }
}
