//! The Definition 2 kernel: the one implementation of the (k, ε)
//! obfuscation test that every check front end runs.
//!
//! Definition 2 asks that, for every vertex `v` of the original graph,
//! the posterior `Y_{deg(v)}` (Eq. 3) has entropy at least `log₂ k`, and
//! lets at most `ε·n` vertices fail. With `W = Σ_v X_v(ω)`, the entropy
//! of the normalised column is `log₂ W − (Σ_v X_v(ω)·log₂ X_v(ω))/W`, so
//! a column reduces to two sums over the Lemma 1 rows `X_v`. The kernel
//! makes the four decisions of the test, and nothing else re-implements
//! them:
//!
//! 1. **Accumulation** ([`ColumnPartials`]): a positive entry `x` adds
//!    `x` to its column's `mass` and `x·log₂ x` to its `xlogx`; zero
//!    entries add nothing. Rows are added in ascending vertex order
//!    within one chunk of the fixed
//!    [`Parallelism`](obf_graph::Parallelism) decomposition.
//! 2. **Fold** ([`fold_entropies`]): the per-chunk partials are
//!    left-folded in ascending chunk order, and each column is finished
//!    by [`entropy_from_partials`]. Float addition is not associative, so
//!    this fixed reduction tree is what makes every entropy independent
//!    of the thread count, the worker count and the column batching.
//! 3. **Column test** (`column_passes`): `H(Y_ω) ≥ log₂ k − 1e-12`.
//! 4. **Verdict** ([`ObfuscationCheck::from_entropies`],
//!    `failed_share`): the failed-vertex count and `ε̃ = failed / n`.
//!
//! The front ends keep only a row source and a dispatch:
//!
//! | front end | row source | dispatch |
//! |---|---|---|
//! | [`AdversaryTable::entropies`](crate::AdversaryTable::entropies) | stored rows | `map_chunks` |
//! | [`MemoizedAdversary::entropies`](crate::MemoizedAdversary::entropies) | class rows; rows with no support in the swept columns are skipped | `map_chunks` |
//! | `obf_evolve::IncrementalAdversary` | per-chunk partials it stores, rebuilt for touched chunks | a fold per query |
//! | `obf_cluster` worker | rows derived on the fly ([`chunk_entropy_partials`](crate::chunk_entropy_partials)) | chunk ranges sent by the coordinator |
//! | `obf_cluster::Coordinator` | chunk partials gathered from workers | a fold per query |
//!
//! The budgeted sweep [`run_budgeted`](crate::run_budgeted) applies the
//! column test and the ε̃ share column by column.

use obf_stats::entropy::entropy_from_partials;

use crate::adversary::DegreeProfile;

/// Column partials of one chunk of vertices: `mass[j] = Σ_v X_v(ω_j)`
/// and `xlogx[j] = Σ_v X_v(ω_j)·log₂ X_v(ω_j)`, over the positive
/// entries only.
#[derive(Debug, Clone)]
pub struct ColumnPartials {
    pub mass: Vec<f64>,
    pub xlogx: Vec<f64>,
}

impl ColumnPartials {
    /// All-zero partials over `width` columns.
    fn zeros(width: usize) -> Self {
        Self {
            mass: vec![0.0; width],
            xlogx: vec![0.0; width],
        }
    }

    /// Partials of `rows` (in iteration order) at the columns `omegas`:
    /// column `j` sums `X_v(omegas[j])`, zero past a row's end.
    pub(crate) fn from_rows<R: AsRef<[f64]>>(
        rows: impl IntoIterator<Item = R>,
        omegas: &[usize],
    ) -> Self {
        let mut out = Self::zeros(omegas.len());
        for row in rows {
            let row = row.as_ref();
            for (j, &omega) in omegas.iter().enumerate() {
                out.add(j, row.get(omega).copied().unwrap_or(0.0));
            }
        }
        out
    }

    /// Partials of `rows` (in iteration order) at the contiguous columns
    /// `first..first + width`: column `j` sums `X_v(first + j)`. Only the
    /// stored entries of each row are visited.
    pub fn from_row_spans<'a>(
        rows: impl IntoIterator<Item = &'a [f64]>,
        first: usize,
        width: usize,
    ) -> Self {
        let mut out = Self::zeros(width);
        for row in rows {
            let end = row.len().min(first + width);
            for (j, &x) in row[first.min(end)..end].iter().enumerate() {
                out.add(j, x);
            }
        }
        out
    }

    /// The accumulation step: a positive `x` adds `x` and `x·log₂ x`.
    #[inline]
    fn add(&mut self, j: usize, x: f64) {
        if x > 0.0 {
            self.mass[j] += x;
            self.xlogx[j] += x * x.log2();
        }
    }
}

/// Entropies `H(Y_ω)` from per-chunk partials: left-folds `chunks` in
/// the order given (which must be ascending chunk order) and finishes
/// each column with [`entropy_from_partials`]. Output `j` reads column
/// `columns[j]` of every chunk; a chunk without that column contributes
/// nothing, so a column no chunk holds has entropy 0.
pub fn fold_entropies<'a>(
    chunks: impl IntoIterator<Item = &'a ColumnPartials>,
    columns: impl ExactSizeIterator<Item = usize> + Clone,
) -> Vec<f64> {
    let mut total = ColumnPartials::zeros(columns.len());
    for chunk in chunks {
        for (j, c) in columns.clone().enumerate() {
            if let (Some(&mass), Some(&xlogx)) = (chunk.mass.get(c), chunk.xlogx.get(c)) {
                total.mass[j] += mass;
                total.xlogx[j] += xlogx;
            }
        }
    }
    total
        .mass
        .iter()
        .zip(&total.xlogx)
        .map(|(&mass, &xlogx)| entropy_from_partials(mass, xlogx))
        .collect()
}

/// The column test of Definition 2: a column with entropy `h`
/// k-obfuscates the vertices of its degree when `h ≥ log₂ k`. The
/// `1e-12` tolerance keeps float rounding from failing a column whose
/// exact entropy is `log₂ k` (a certain crowd of exactly `k`).
pub(crate) fn column_passes(h: f64, k: usize) -> bool {
    h >= (k as f64).log2() - 1e-12
}

/// `ε̃`: the share of `n` vertices that failed (0 for an empty graph).
pub(crate) fn failed_share(failed: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        failed as f64 / n as f64
    }
}

/// Result of checking Definition 2 on an uncertain graph against the
/// original graph's degrees.
#[derive(Debug, Clone)]
pub struct ObfuscationCheck {
    /// Entropy `H(Y_ω)` for each distinct original degree, as
    /// `(degree, entropy)` pairs sorted by degree.
    pub entropy_by_degree: Vec<(usize, f64)>,
    /// Fraction of vertices *not* k-obfuscated (the ε̃ of Algorithm 2
    /// line 20).
    pub eps_achieved: f64,
    /// Number of vertices not k-obfuscated.
    pub failed_vertices: usize,
}

impl ObfuscationCheck {
    /// Assembles the Definition 2 verdict from column entropies
    /// (parallel to [`DegreeProfile::distinct`]). Every check front end
    /// — exhaustive, incremental and distributed — ends here, so a front
    /// end that reproduces the entropy bits reproduces the verdict and
    /// ε̃ bits too.
    pub fn from_entropies(profile: &DegreeProfile, entropies: Vec<f64>, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(
            entropies.len(),
            profile.distinct().len(),
            "one entropy per distinct degree"
        );
        let entropy_by_degree: Vec<(usize, f64)> =
            profile.distinct().iter().copied().zip(entropies).collect();
        let failed_vertices = entropy_by_degree
            .iter()
            .zip(profile.multiplicity())
            .filter(|((_, h), _)| !column_passes(*h, k))
            .map(|(_, &m)| m)
            .sum();
        Self {
            entropy_by_degree,
            eps_achieved: failed_share(failed_vertices, profile.num_vertices()),
            failed_vertices,
        }
    }

    /// Whether the published graph is a (k, ε)-obfuscation.
    pub fn satisfies(&self, eps: f64) -> bool {
        self.eps_achieved <= eps
    }
}
