//! The coordinator: scatter work, gather partials, merge in the fixed
//! order.
//!
//! The partitioning contract that makes the distributed answers
//! bit-identical to the single-process engine:
//!
//! * **Chunks, not vertex ranges, are the unit of entropy scatter.**
//!   The chunking of `0..n` vertices is fixed by `chunk_size` alone
//!   (`Parallelism::chunk_range`); workers receive contiguous *chunk
//!   index* ranges ([`obf_graph::split_ranges`]) and return one
//!   `(Σ x, Σ x·log₂ x)` pair per chunk — the Definition 2 kernel's
//!   [`ColumnPartials`]. The coordinator hands **all chunks in ascending
//!   global chunk order** to the kernel's fold ([`fold_entropies`], the
//!   one `AdversaryTable::entropies` uses) and its verdict
//!   ([`ObfuscationCheck::from_entropies`]), so the floating-point
//!   reduction tree is independent of the worker count. Workers merging
//!   their own chunks first would change the tree: `(((c0+c1)+c2)+c3)`
//!   is not `((c0+c1)+(c2+c3))` in floating point.
//! * **World indices are the unit of sampling scatter.** World `i` is
//!   a pure function of `(master_seed, i)`; concatenating the workers'
//!   contiguous index ranges in order reproduces
//!   [`obf_uncertain::sample_worlds_par`] exactly, and rebuilding each
//!   edge list with [`Graph::from_edges`] reproduces the canonical CSR.

use crate::transport::Transport;
use crate::wire::{decode_response, encode_request_with_trace, WorkerRequest, WorkerResponse};
use crate::ClusterError;
use obf_core::{fold_entropies, ColumnPartials, DegreeProfile, ObfuscationCheck};
use obf_graph::{split_ranges, Graph, Parallelism};
use obf_uncertain::{snapshot_bytes, DegreeDistMethod, UncertainGraph};

/// Drives a set of workers through load / check / sample rounds.
///
/// Scatter and gather are split so all workers compute concurrently:
/// every request is written before any reply is awaited.
pub struct Coordinator {
    workers: Vec<Box<dyn Transport>>,
    loaded_n: Option<usize>,
}

impl Coordinator {
    /// Takes ownership of connected worker transports. Panics if
    /// `workers` is empty — a coordinator with nobody to coordinate is
    /// a bug, not a runtime condition.
    pub fn new(workers: Vec<Box<dyn Transport>>) -> Self {
        assert!(!workers.is_empty(), "need at least one worker");
        Coordinator {
            workers,
            loaded_n: None,
        }
    }

    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    fn send(&mut self, worker: usize, req: &WorkerRequest) -> Result<(), ClusterError> {
        // Thread the caller's trace (if any) over the wire, so a
        // server request fanned out to workers keeps one trace id
        // end-to-end. No trace → the exact legacy frame bytes.
        let trace = obf_obs::current_trace();
        let trace = (!trace.is_none()).then_some(trace.0);
        self.workers[worker]
            .send(&encode_request_with_trace(req, trace))
            .map_err(|e| ClusterError::from_transport(worker, e))
    }

    fn recv(&mut self, worker: usize) -> Result<WorkerResponse, ClusterError> {
        let frame = self.workers[worker]
            .recv()
            .map_err(|e| ClusterError::from_transport(worker, e))?;
        match decode_response(&frame) {
            Ok(WorkerResponse::Error { message }) => Err(ClusterError::Worker { worker, message }),
            Ok(resp) => Ok(resp),
            Err(error) => Err(ClusterError::Wire { worker, error }),
        }
    }

    /// Round-trips a `Ping` through every worker.
    pub fn ping_all(&mut self) -> Result<(), ClusterError> {
        for w in 0..self.workers.len() {
            self.send(w, &WorkerRequest::Ping)?;
        }
        for w in 0..self.workers.len() {
            match self.recv(w)? {
                WorkerResponse::Pong => {}
                other => {
                    return Err(ClusterError::Protocol {
                        worker: w,
                        detail: format!("expected Pong, got {other:?}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Broadcasts the published graph to every worker as snapshot
    /// bytes and validates the echoed shape.
    pub fn load_graph(&mut self, g: &UncertainGraph) -> Result<(), ClusterError> {
        let snapshot = snapshot_bytes(g);
        let req = WorkerRequest::LoadGraph { snapshot };
        for w in 0..self.workers.len() {
            self.send(w, &req)?;
        }
        let (n, candidates) = (g.num_vertices() as u64, g.num_candidates() as u64);
        for w in 0..self.workers.len() {
            match self.recv(w)? {
                WorkerResponse::Loaded {
                    n: wn,
                    candidates: wc,
                } if wn == n && wc == candidates => {}
                other => {
                    return Err(ClusterError::Protocol {
                        worker: w,
                        detail: format!(
                            "expected Loaded {{ n: {n}, candidates: {candidates} }}, got {other:?}"
                        ),
                    })
                }
            }
        }
        self.loaded_n = Some(g.num_vertices());
        Ok(())
    }

    /// Column entropies `H(Y_ω)` for each requested ω, computed by
    /// scattering chunk ranges and folding the gathered per-chunk
    /// partials in global chunk order — bit-identical to
    /// `AdversaryTable::entropies` at this `chunk_size` for any worker
    /// count.
    pub fn entropies(
        &mut self,
        omegas: &[usize],
        method: DegreeDistMethod,
        chunk_size: usize,
    ) -> Result<Vec<f64>, ClusterError> {
        let n = self.loaded_n.ok_or(ClusterError::NoGraph)?;
        if omegas.is_empty() {
            return Ok(Vec::new());
        }
        assert!(chunk_size >= 1, "chunk_size must be at least 1");
        let par = Parallelism::sequential().with_chunk_size(chunk_size);
        let n_chunks = par.num_chunks(n);
        // Workers get contiguous chunk ranges; trailing ranges may be
        // empty when there are more workers than chunks.
        let assignment = split_ranges(n_chunks, self.workers.len());
        let omegas_u64: Vec<u64> = omegas.iter().map(|&w| w as u64).collect();
        for (w, chunks) in assignment.iter().enumerate() {
            if chunks.is_empty() {
                continue;
            }
            self.send(
                w,
                &WorkerRequest::CheckChunks {
                    method,
                    chunk_size: chunk_size as u64,
                    first_chunk: chunks.start as u64,
                    n_chunks: chunks.len() as u64,
                    omegas: omegas_u64.clone(),
                },
            )?;
        }
        let mut per_chunk: Vec<Option<ColumnPartials>> = vec![None; n_chunks];
        for (w, chunks) in assignment.iter().enumerate() {
            if chunks.is_empty() {
                continue;
            }
            match self.recv(w)? {
                WorkerResponse::ChunkPartials {
                    first_chunk,
                    mass,
                    xlogx,
                } => {
                    if first_chunk != chunks.start as u64
                        || mass.len() != chunks.len()
                        || xlogx.len() != chunks.len()
                        || mass.iter().any(|m| m.len() != omegas.len())
                        || xlogx.iter().any(|x| x.len() != omegas.len())
                    {
                        return Err(ClusterError::Protocol {
                            worker: w,
                            detail: format!(
                                "partials shape mismatch: expected chunks \
                                 {}..{} × {} omegas, got first_chunk={first_chunk} \
                                 n_chunks={}",
                                chunks.start,
                                chunks.end,
                                omegas.len(),
                                mass.len()
                            ),
                        });
                    }
                    for (i, (mass, xlogx)) in mass.into_iter().zip(xlogx).enumerate() {
                        per_chunk[chunks.start + i] = Some(ColumnPartials { mass, xlogx });
                    }
                }
                other => {
                    return Err(ClusterError::Protocol {
                        worker: w,
                        detail: format!("expected ChunkPartials, got {other:?}"),
                    })
                }
            }
        }
        let chunks = per_chunk.iter().map(|p| {
            p.as_ref()
                .expect("every chunk assigned to exactly one worker")
        });
        Ok(fold_entropies(chunks, 0..omegas.len()))
    }

    /// The distributed Definition 2 check against a precomputed degree
    /// profile of the original graph.
    pub fn check_with_profile(
        &mut self,
        profile: &DegreeProfile,
        k: usize,
        method: DegreeDistMethod,
        chunk_size: usize,
    ) -> Result<ObfuscationCheck, ClusterError> {
        let n = self.loaded_n.ok_or(ClusterError::NoGraph)?;
        assert_eq!(profile.num_vertices(), n, "vertex sets differ");
        let entropies = self.entropies(profile.distinct(), method, chunk_size)?;
        Ok(ObfuscationCheck::from_entropies(profile, entropies, k))
    }

    /// The distributed Definition 2 check: verdict, ε̃, and per-degree
    /// entropies bit-identical to `ObfuscationCheck::run` on the same
    /// `chunk_size`.
    pub fn check(
        &mut self,
        original: &Graph,
        k: usize,
        method: DegreeDistMethod,
        chunk_size: usize,
    ) -> Result<ObfuscationCheck, ClusterError> {
        self.check_with_profile(&DegreeProfile::new(original), k, method, chunk_size)
    }

    /// Samples `r` possible worlds of the `master_seed` stream by
    /// scattering contiguous world-index ranges — output identical to
    /// `sample_worlds_par(g, r, master_seed, ..)` on the loaded graph.
    pub fn sample_worlds(
        &mut self,
        r: usize,
        master_seed: u64,
    ) -> Result<Vec<Graph>, ClusterError> {
        let n = self.loaded_n.ok_or(ClusterError::NoGraph)?;
        let assignment = split_ranges(r, self.workers.len());
        for (w, indices) in assignment.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            self.send(
                w,
                &WorkerRequest::SampleWorlds {
                    master_seed,
                    start: indices.start as u64,
                    count: indices.len() as u64,
                },
            )?;
        }
        let mut out = Vec::with_capacity(r);
        for (w, indices) in assignment.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            match self.recv(w)? {
                WorkerResponse::Worlds {
                    start,
                    n_vertices,
                    worlds,
                } => {
                    if start != indices.start as u64
                        || worlds.len() != indices.len()
                        || n_vertices != n as u64
                    {
                        return Err(ClusterError::Protocol {
                            worker: w,
                            detail: format!(
                                "worlds shape mismatch: expected {}..{} over {n} vertices, \
                                 got start={start} count={} n_vertices={n_vertices}",
                                indices.start,
                                indices.end,
                                worlds.len()
                            ),
                        });
                    }
                    for edges in &worlds {
                        if let Some(&(u, v)) = edges
                            .iter()
                            .find(|&&(u, v)| u as usize >= n || v as usize >= n)
                        {
                            return Err(ClusterError::Protocol {
                                worker: w,
                                detail: format!("edge ({u}, {v}) out of range for {n} vertices"),
                            });
                        }
                    }
                    out.extend(worlds.into_iter().map(|edges| Graph::from_edges(n, &edges)));
                }
                other => {
                    return Err(ClusterError::Protocol {
                        worker: w,
                        detail: format!("expected Worlds, got {other:?}"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Orderly shutdown: every worker gets `Shutdown` and must reply
    /// `Bye`.
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        for w in 0..self.workers.len() {
            self.send(w, &WorkerRequest::Shutdown)?;
        }
        for w in 0..self.workers.len() {
            match self.recv(w)? {
                WorkerResponse::Bye => {}
                other => {
                    return Err(ClusterError::Protocol {
                        worker: w,
                        detail: format!("expected Bye, got {other:?}"),
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_in_proc_workers, spawn_socket_workers};
    use obf_core::AdversaryTable;
    use obf_uncertain::sample_worlds_par;

    fn paper_graph() -> (Graph, UncertainGraph) {
        // The Figure 1-style toy: a path plus a triangle, with mixed
        // certain and uncertain candidates.
        let original =
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)]);
        let published = UncertainGraph::new(
            7,
            vec![
                (0, 1, 0.9),
                (1, 2, 0.6),
                (2, 3, 1.0),
                (3, 4, 0.3),
                (4, 5, 0.8),
                (5, 3, 0.5),
                (5, 6, 0.7),
                (0, 6, 0.2),
            ],
        )
        .unwrap();
        (original, published)
    }

    #[test]
    fn distributed_check_is_bit_identical_across_worker_counts() {
        // The toy pair and the empty graph (n = 0), at k = 2 and k = 1.
        let empty = (Graph::empty(0), UncertainGraph::new(0, vec![]).unwrap());
        for (original, published) in [paper_graph(), empty] {
            let profile = DegreeProfile::new(&original);
            let table = AdversaryTable::build(&published, DegreeDistMethod::Exact);
            for (k, chunk_size) in [1, 2]
                .into_iter()
                .flat_map(|k| [1, 2, 3, 64].map(|c| (k, c)))
            {
                let par = Parallelism::sequential().with_chunk_size(chunk_size);
                let expected = ObfuscationCheck::run_with_profile(&profile, &table, k, &par);
                for workers in [1, 2, 4, 9] {
                    let mut coord = Coordinator::new(spawn_in_proc_workers(workers));
                    coord.load_graph(&published).unwrap();
                    let got = coord
                        .check(&original, k, DegreeDistMethod::Exact, chunk_size)
                        .unwrap();
                    assert_eq!(got.entropy_by_degree, expected.entropy_by_degree);
                    assert_eq!(got.eps_achieved.to_bits(), expected.eps_achieved.to_bits());
                    assert_eq!(got.failed_vertices, expected.failed_vertices);
                    coord.shutdown().unwrap();
                }
            }
        }
    }

    #[test]
    fn socket_workers_agree_with_in_proc() {
        let (original, published) = paper_graph();
        let mut in_proc = Coordinator::new(spawn_in_proc_workers(3));
        let mut socket = Coordinator::new(spawn_socket_workers(3).unwrap());
        in_proc.load_graph(&published).unwrap();
        socket.load_graph(&published).unwrap();
        let a = in_proc
            .check(&original, 3, DegreeDistMethod::Auto { threshold: 4 }, 2)
            .unwrap();
        let b = socket
            .check(&original, 3, DegreeDistMethod::Auto { threshold: 4 }, 2)
            .unwrap();
        assert_eq!(a.entropy_by_degree, b.entropy_by_degree);
        assert_eq!(a.failed_vertices, b.failed_vertices);
        in_proc.shutdown().unwrap();
        socket.shutdown().unwrap();
    }

    #[test]
    fn scattered_sampling_reproduces_the_parallel_sampler() {
        let (_, published) = paper_graph();
        let expected = sample_worlds_par(&published, 11, 77, &Parallelism::sequential());
        for workers in [1, 2, 4] {
            let mut coord = Coordinator::new(spawn_in_proc_workers(workers));
            coord.load_graph(&published).unwrap();
            let got = coord.sample_worlds(11, 77).unwrap();
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.num_vertices(), e.num_vertices());
                assert_eq!(g.edges().collect::<Vec<_>>(), e.edges().collect::<Vec<_>>());
            }
            coord.shutdown().unwrap();
        }
    }

    #[test]
    fn check_before_load_is_no_graph() {
        let mut coord = Coordinator::new(spawn_in_proc_workers(2));
        assert!(matches!(
            coord.entropies(&[1], DegreeDistMethod::Exact, 2),
            Err(ClusterError::NoGraph)
        ));
    }

    #[test]
    fn dead_worker_is_worker_lost_not_wrong_answer() {
        let (_, published) = paper_graph();
        // One real worker plus one transport whose peer is dropped.
        let (dead_end, _) = crate::transport::in_proc_pair();
        let mut workers = spawn_in_proc_workers(1);
        workers.push(Box::new(dead_end));
        let mut coord = Coordinator::new(workers);
        let err = coord.load_graph(&published).unwrap_err();
        assert!(
            matches!(err, ClusterError::WorkerLost { worker: 1, .. }),
            "{err}"
        );
    }
}
