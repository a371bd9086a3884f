//! The adversary's view of an uncertain graph (paper Section 4).
//!
//! For the degree property, `X_v(ω) = Pr(deg_{G̃}(v) = ω)` is the
//! Poisson-binomial distribution over the candidate pairs incident to `v`
//! (Lemma 1). The normalised column `Y_ω(v) = X_v(ω)/Σ_u X_u(ω)` (Eq. 3)
//! is the posterior over published vertices for a target with original
//! degree `ω`; its entropy certifies k-obfuscation (Definition 2).

use obf_graph::{Graph, Parallelism};
use obf_stats::entropy::{entropy_bits_normalized, obfuscation_level};
use obf_uncertain::degree_dist::{vertex_degree_distribution, DegreeDistMethod};
use obf_uncertain::UncertainGraph;

pub use crate::definition2::ObfuscationCheck;
use crate::definition2::{fold_entropies, ColumnPartials};

/// Degree statistics of the *original* graph that every Definition 2
/// check consumes: per-vertex degrees, sorted distinct degrees with
/// multiplicities, and the column sweep order of the budgeted fast path.
///
/// Algorithm 1 re-checks Definition 2 at every candidate σ of the
/// doubling/binary search while the original graph never changes, so the
/// σ-search fast path computes this once per search instead of once per
/// check (see [`crate::fastpath`]).
#[derive(Debug, Clone)]
pub struct DegreeProfile {
    degrees: Vec<usize>,
    /// Sorted ascending.
    distinct: Vec<usize>,
    /// Parallel to `distinct`.
    multiplicity: Vec<usize>,
    /// Indices into `distinct`, ordered rarest multiplicity first (ties:
    /// larger degree first). Rare degrees are the likeliest to fail the
    /// entropy test — hubs have small crowds — so sweeping them first
    /// lets the budgeted check abort after a few columns.
    sweep_order: Vec<usize>,
}

impl DegreeProfile {
    /// Precomputes the profile of `g`.
    pub fn new(g: &Graph) -> Self {
        let degrees: Vec<usize> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
        let mut distinct: Vec<usize> = degrees.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let multiplicity: Vec<usize> = {
            let mut counts = vec![0usize; distinct.last().map_or(0, |&d| d + 1)];
            for &d in &degrees {
                counts[d] += 1;
            }
            distinct.iter().map(|&d| counts[d]).collect()
        };
        let mut sweep_order: Vec<usize> = (0..distinct.len()).collect();
        sweep_order.sort_by_key(|&i| (multiplicity[i], std::cmp::Reverse(distinct[i])));
        Self {
            degrees,
            distinct,
            multiplicity,
            sweep_order,
        }
    }

    /// Number of vertices of the profiled graph.
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Per-vertex degrees, in vertex order.
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Sorted distinct degrees.
    pub fn distinct(&self) -> &[usize] {
        &self.distinct
    }

    /// Multiplicities parallel to [`DegreeProfile::distinct`].
    pub fn multiplicity(&self) -> &[usize] {
        &self.multiplicity
    }

    /// Largest degree (0 for an empty graph) — the support cap the fast
    /// path hands to the truncated Lemma 1 DP.
    pub fn max_degree(&self) -> usize {
        self.distinct.last().copied().unwrap_or(0)
    }

    /// Column order of the budgeted sweep: indices into
    /// [`DegreeProfile::distinct`], rarest multiplicity first.
    pub fn sweep_order(&self) -> &[usize] {
        &self.sweep_order
    }
}

/// Per-vertex degree distributions of an uncertain graph — the rows of the
/// matrix `X_v(ω)`.
#[derive(Debug, Clone)]
pub struct AdversaryTable {
    /// `rows[v][ω] = X_v(ω)`; rows have individual lengths (bounded by
    /// each vertex's incident candidate count + 1).
    rows: Vec<Vec<f64>>,
}

impl AdversaryTable {
    /// Builds the table for all vertices of `g`, sequentially.
    /// Equivalent to [`AdversaryTable::build_par`] with
    /// [`Parallelism::sequential`].
    pub fn build(g: &UncertainGraph, method: DegreeDistMethod) -> Self {
        Self::build_par(g, method, &Parallelism::sequential())
    }

    /// Builds the table with each worker thread owning contiguous vertex
    /// ranges. The per-vertex Poisson-binomial DP (Lemma 1) is `O(ℓ_v²)`
    /// and rows are independent, so this is the dominant parallel win of
    /// Algorithm 2's Definition 2 check. Output is identical for every
    /// thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_core::AdversaryTable;
    /// use obf_graph::Parallelism;
    /// use obf_uncertain::{degree_dist::DegreeDistMethod, UncertainGraph};
    ///
    /// let ug = UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 2, 0.25)]).unwrap();
    /// let seq = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
    /// let par = AdversaryTable::build_par(&ug, DegreeDistMethod::Exact, &Parallelism::new(4));
    /// assert_eq!(seq.row(1), par.row(1));
    /// ```
    pub fn build_par(g: &UncertainGraph, method: DegreeDistMethod, par: &Parallelism) -> Self {
        let rows = par.map_collect(g.num_vertices(), |v| {
            vertex_degree_distribution(g, v as u32, method)
        });
        Self { rows }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// `X_v(ω)`; zero outside the stored support.
    pub fn x(&self, v: u32, omega: usize) -> f64 {
        self.rows[v as usize].get(omega).copied().unwrap_or(0.0)
    }

    /// Full row of vertex `v` (its degree distribution).
    pub fn row(&self, v: u32) -> &[f64] {
        &self.rows[v as usize]
    }

    /// Replaces the row of vertex `v` — how a table follows a new
    /// release whose other rows are unchanged.
    pub fn set_row(&mut self, v: u32, row: Vec<f64>) {
        self.rows[v as usize] = row;
    }

    /// The unnormalised column `[X_u(ω)]_u` over all vertices.
    pub fn column(&self, omega: usize) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| r.get(omega).copied().unwrap_or(0.0))
            .collect()
    }

    /// The posterior `Y_ω` (Eq. 3): the column normalised by its sum.
    /// Returns all zeros if the column has no mass.
    pub fn posterior(&self, omega: usize) -> Vec<f64> {
        let mut col = self.column(omega);
        let total: f64 = col.iter().sum();
        if total > 0.0 {
            for x in &mut col {
                *x /= total;
            }
        }
        col
    }

    /// Entropy in bits of `Y_ω` (Definition 2's measure).
    pub fn entropy(&self, omega: usize) -> f64 {
        entropy_bits_normalized(&self.column(omega))
    }

    /// `2^H(Y_ω)` — the equivalent uniform crowd size (Figure 4's x-axis).
    pub fn obfuscation_level(&self, omega: usize) -> f64 {
        obfuscation_level(&self.column(omega))
    }

    /// The *a-posteriori belief* obfuscation level of Hay et al. /
    /// Ying et al. (paper Section 2): `(max_u Y_ω(u))⁻¹`. The paper
    /// adopts the entropy measure instead because, as Bonchi et al.
    /// showed, `2^H(Y_ω) >= (max_u Y_ω(u))⁻¹` always — the entropy
    /// distinguishes situations the belief measure conflates. Returns 0
    /// when the column carries no mass.
    pub fn belief_obfuscation_level(&self, omega: usize) -> f64 {
        let y = self.posterior(omega);
        let max = y.iter().copied().fold(0.0f64, f64::max);
        if max <= 0.0 {
            0.0
        } else {
            1.0 / max
        }
    }

    /// Entropies `H(Y_ω)` for many property values at once, sharded over
    /// contiguous vertex ranges.
    ///
    /// Each chunk of vertices contributes its [`ColumnPartials`] for the
    /// requested `ω`, and the chunks are folded in chunk order by the
    /// Definition 2 kernel ([`crate::definition2`]), so the result is
    /// bit-identical for every thread count (see [`Parallelism`]). Output
    /// is parallel to `omegas`.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_core::AdversaryTable;
    /// use obf_graph::Parallelism;
    /// use obf_uncertain::{degree_dist::DegreeDistMethod, UncertainGraph};
    ///
    /// let ug = UncertainGraph::new(4, vec![(0, 1, 0.6), (1, 2, 0.4), (2, 3, 0.9)]).unwrap();
    /// let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
    /// let seq = t.entropies(&[0, 1, 2], &Parallelism::sequential());
    /// let par = t.entropies(&[0, 1, 2], &Parallelism::new(4));
    /// assert_eq!(seq, par);
    /// ```
    pub fn entropies(&self, omegas: &[usize], par: &Parallelism) -> Vec<f64> {
        if omegas.is_empty() {
            return Vec::new();
        }
        let partials = par.map_chunks(self.rows.len(), |range| {
            ColumnPartials::from_rows(&self.rows[range], omegas)
        });
        fold_entropies(&partials, 0..omegas.len())
    }
}

impl ObfuscationCheck {
    /// Runs the Definition 2 test: for every vertex `v` of the original
    /// graph, the entropy of `Y_{deg_G(v)}` must reach `log₂ k`. The
    /// entropy columns are sharded across `par`'s worker threads (see
    /// [`AdversaryTable::entropies`]); the verdict is bit-identical for
    /// every thread count.
    ///
    /// `original` and `published` must have the same vertex set.
    pub fn run(original: &Graph, published: &AdversaryTable, k: usize, par: &Parallelism) -> Self {
        Self::run_with_profile(&DegreeProfile::new(original), published, k, par)
    }

    /// [`ObfuscationCheck::run`] with a precomputed [`DegreeProfile`] of
    /// the original graph — bit-identical output, but the degree sort is
    /// paid once per σ search instead of once per check.
    pub fn run_with_profile(
        profile: &DegreeProfile,
        published: &AdversaryTable,
        k: usize,
        par: &Parallelism,
    ) -> Self {
        assert_eq!(
            profile.num_vertices(),
            published.num_vertices(),
            "vertex sets differ"
        );
        let entropies = published.entropies(profile.distinct(), par);
        Self::from_entropies(profile, entropies, k)
    }
}

/// The per-chunk entropy partials over one contiguous vertex range, one
/// column per requested `ω` — the scatter kernel of the distributed
/// Definition 2 check (`obf_cluster`).
///
/// Rows are derived on the fly with the same
/// [`vertex_degree_distribution`] call that [`AdversaryTable::build_par`]
/// uses and accumulated by the same `ColumnPartials::from_rows` as
/// [`AdversaryTable::entropies`]. A coordinator that folds these
/// per-chunk partials with [`fold_entropies`] in global chunk order
/// therefore reproduces the single-process entropy bits exactly, at any
/// worker count.
pub fn chunk_entropy_partials(
    g: &UncertainGraph,
    method: DegreeDistMethod,
    omegas: &[usize],
    vertices: std::ops::Range<usize>,
) -> ColumnPartials {
    ColumnPartials::from_rows(
        vertices.map(|v| vertex_degree_distribution(g, v as u32, method)),
        omegas,
    )
}

/// Per-vertex obfuscation levels `2^H(Y_{deg_G(v)})` for the anonymity
/// curves of Figure 4, with the entropy columns sharded across `par`'s
/// worker threads.
pub fn vertex_obfuscation_levels(
    original: &Graph,
    published: &AdversaryTable,
    par: &Parallelism,
) -> Vec<f64> {
    let profile = DegreeProfile::new(original);
    let entropies = published.entropies(profile.distinct(), par);
    let mut level = vec![0.0f64; profile.max_degree() + 1];
    for (&d, &h) in profile.distinct().iter().zip(&entropies) {
        level[d] = h.exp2();
    }
    profile.degrees().iter().map(|&d| level[d]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Figure 1: original graph (a) and uncertain graph (b).
    fn paper_pair() -> (Graph, UncertainGraph) {
        let original = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]);
        let published = UncertainGraph::new(
            4,
            vec![
                (0, 1, 0.7),
                (0, 2, 0.9),
                (0, 3, 0.8),
                (1, 2, 0.8),
                (1, 3, 0.1),
                (2, 3, 0.0),
            ],
        )
        .unwrap();
        (original, published)
    }

    #[test]
    fn table1_y_matrix_columns() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let expected: [(usize, [f64; 4]); 4] = [
            (0, [0.023, 0.208, 0.077, 0.692]),
            (1, [0.064, 0.242, 0.180, 0.514]),
            (2, [0.229, 0.311, 0.414, 0.046]),
            (3, [0.900, 0.100, 0.000, 0.000]),
        ];
        for (omega, want) in expected {
            let y = t.posterior(omega);
            for (v, &w) in want.iter().enumerate() {
                assert!(
                    (y[v] - w).abs() < 1.5e-3,
                    "omega={omega} v={} got={} want={w}",
                    v + 1,
                    y[v]
                );
            }
        }
    }

    #[test]
    fn example2_entropies() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        // Example 2: H(deg=3) ≈ 0.469; H(deg=1) ≈ 1.688; H(deg=2) ≈ 1.742.
        assert!((t.entropy(3) - 0.469).abs() < 1e-3, "h3={}", t.entropy(3));
        assert!((t.entropy(1) - 1.688).abs() < 1e-3, "h1={}", t.entropy(1));
        assert!((t.entropy(2) - 1.742).abs() < 1e-3, "h2={}", t.entropy(2));
    }

    #[test]
    fn example2_is_3_025_obfuscation() {
        // "as three out of four vertices are 3-obfuscated, the graph
        // provides a (3, 0.25)-obfuscation".
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let check = ObfuscationCheck::run(&g, &t, 3, &Parallelism::sequential());
        assert_eq!(check.failed_vertices, 1); // v1 (degree 3)
        assert!((check.eps_achieved - 0.25).abs() < 1e-12);
        assert!(check.satisfies(0.25));
        assert!(!check.satisfies(0.2));
    }

    #[test]
    fn certain_graph_entropy_is_log_crowd_size() {
        // In a certain graph, Y_ω is uniform over the k vertices with
        // degree ω (Section 3 discussion).
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        // Degrees: 1,2,2,2,1.
        let ug = UncertainGraph::from_certain(&g);
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        assert!((t.entropy(1) - 1.0).abs() < 1e-12); // two vertices
        assert!((t.entropy(2) - (3.0f64).log2()).abs() < 1e-12);
        assert!((t.obfuscation_level(2) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn row_and_x_accessors() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        assert!((t.x(0, 2) - 0.398).abs() < 1e-12);
        assert_eq!(t.x(0, 99), 0.0);
        assert_eq!(t.row(3).len(), 4); // 3 incident candidates + 1
    }

    #[test]
    fn parallel_entropies_match_serial() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let omegas: Vec<usize> = (0..4).collect();
        // Chunk size 1 forces multiple chunks even on this 4-vertex graph.
        let serial = t.entropies(&omegas, &Parallelism::sequential().with_chunk_size(1));
        for threads in [2, 4] {
            let par = Parallelism::new(threads).with_chunk_size(1);
            assert_eq!(serial, t.entropies(&omegas, &par), "threads={threads}");
        }
        // The chunked accumulation agrees with the single-column formula.
        for &w in &omegas {
            assert!((serial[w] - t.entropy(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (_, ug) = paper_pair();
        let seq = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        for threads in [2, 4] {
            let par = AdversaryTable::build_par(
                &ug,
                DegreeDistMethod::Exact,
                &Parallelism::new(threads).with_chunk_size(1),
            );
            for v in 0..4u32 {
                assert_eq!(seq.row(v), par.row(v), "threads={threads} v={v}");
            }
        }
    }

    #[test]
    fn entropy_level_dominates_belief_level() {
        // Section 2: "the obfuscation level quantified by means of the
        // entropy is always greater than [or equal to] the one based on
        // a-posteriori belief probabilities".
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        for omega in 0..4usize {
            let entropy_level = t.obfuscation_level(omega);
            let belief_level = t.belief_obfuscation_level(omega);
            assert!(
                entropy_level >= belief_level - 1e-9,
                "omega={omega}: entropy {entropy_level} < belief {belief_level}"
            );
        }
    }

    #[test]
    fn belief_level_on_certain_graph_is_crowd_size() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let ug = UncertainGraph::from_certain(&g);
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        // Uniform over the crowd: belief level equals entropy level.
        assert!((t.belief_obfuscation_level(2) - 3.0).abs() < 1e-9);
        assert!((t.belief_obfuscation_level(1) - 2.0).abs() < 1e-9);
        assert_eq!(t.belief_obfuscation_level(4), 0.0); // no mass at 4
    }

    #[test]
    fn obfuscation_levels_per_vertex() {
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let levels = vertex_obfuscation_levels(&g, &t, &Parallelism::sequential());
        assert_eq!(levels.len(), 4);
        // v1 has degree 3: level 2^0.469 ≈ 1.38.
        assert!((levels[0] - 2f64.powf(t.entropy(3))).abs() < 1e-12);
        // v3, v4 share degree 2 and thus share a level.
        assert_eq!(levels[2], levels[3]);
    }

    #[test]
    fn degree_profile_orders_rarest_first() {
        let (g, _) = paper_pair(); // degrees 3, 1, 2, 2
        let p = DegreeProfile::new(&g);
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.degrees(), &[3, 1, 2, 2]);
        assert_eq!(p.distinct(), &[1, 2, 3]);
        assert_eq!(p.multiplicity(), &[1, 2, 1]);
        assert_eq!(p.max_degree(), 3);
        // Multiplicity ascending, ties broken towards larger degrees.
        assert_eq!(p.sweep_order(), &[2, 0, 1]);
    }

    #[test]
    fn run_with_profile_matches_run() {
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let par = Parallelism::sequential();
        let a = ObfuscationCheck::run(&g, &t, 3, &par);
        let b = ObfuscationCheck::run_with_profile(&DegreeProfile::new(&g), &t, 3, &par);
        assert_eq!(a.entropy_by_degree, b.entropy_by_degree);
        assert_eq!(a.eps_achieved, b.eps_achieved);
        assert_eq!(a.failed_vertices, b.failed_vertices);
    }

    #[test]
    fn from_entropies_matches_run_with_profile() {
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let par = Parallelism::sequential();
        let profile = DegreeProfile::new(&g);
        let direct = ObfuscationCheck::run_with_profile(&profile, &t, 3, &par);
        let entropies = t.entropies(profile.distinct(), &par);
        let assembled = ObfuscationCheck::from_entropies(&profile, entropies, 3);
        assert_eq!(direct.entropy_by_degree, assembled.entropy_by_degree);
        assert_eq!(direct.eps_achieved, assembled.eps_achieved);
        assert_eq!(direct.failed_vertices, assembled.failed_vertices);
    }

    #[test]
    fn chunked_partials_fold_to_table_entropies() {
        // Per-chunk scatter partials, folded in chunk order, must equal
        // the single-process `entropies` bits — the contract the
        // distributed check is built on. Chunk size 1 maximises the
        // number of fold steps.
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let omegas: Vec<usize> = vec![0, 1, 2, 3];
        for chunk_size in [1usize, 2, 3] {
            let par = Parallelism::sequential().with_chunk_size(chunk_size);
            let want = t.entropies(&omegas, &par);
            let chunks: Vec<ColumnPartials> = (0..par.num_chunks(ug.num_vertices()))
                .map(|c| {
                    chunk_entropy_partials(
                        &ug,
                        DegreeDistMethod::Exact,
                        &omegas,
                        par.chunk_range(ug.num_vertices(), c),
                    )
                })
                .collect();
            let got = fold_entropies(&chunks, 0..omegas.len());
            assert_eq!(got, want, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn empty_graph_check() {
        let g = Graph::empty(0);
        let ug = UncertainGraph::new(0, vec![]).unwrap();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let check = ObfuscationCheck::run(&g, &t, 5, &Parallelism::sequential());
        assert_eq!(check.eps_achieved, 0.0);
    }

    #[test]
    #[should_panic(expected = "vertex sets differ")]
    fn mismatched_vertex_sets_rejected() {
        let g = Graph::empty(3);
        let ug = UncertainGraph::new(2, vec![]).unwrap();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let _ = ObfuscationCheck::run(&g, &t, 2, &Parallelism::sequential());
    }
}
