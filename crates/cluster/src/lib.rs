//! Scale-out layer: the Definition 2 check and possible-world sampling
//! partitioned over worker processes.
//!
//! A [`Coordinator`] ships a published graph to N workers over a
//! [`Transport`] (in-process channels or length-prefixed TCP), scatters
//! contiguous *chunk-index* ranges of the entropy computation and
//! contiguous *world-index* ranges of Monte-Carlo sampling, and merges
//! the results. Workers return **per-chunk** partial sums
//! `(Σ x, Σ x·log₂ x)` — never pre-merged per-worker totals — and the
//! coordinator folds all chunks in global chunk order, so the
//! floating-point reduction tree is exactly the one
//! `AdversaryTable::entropies` uses and the verdict, ε̃, and every
//! entropy are bit-identical to the single-process check at any worker
//! count. Sampled worlds come back as edge lists and are rebuilt into
//! the same canonical CSR that [`obf_uncertain::sample_worlds_par`]
//! produces.
//!
//! Serving is not partitioned: one `obf_server` event loop answers
//! every query over the published graph.
//!
//! Failure is typed, never silent: a worker dying mid-reduction
//! surfaces as [`ClusterError::WorkerLost`], a garbage frame as
//! [`ClusterError::Wire`] — a partition can abort a check but can not
//! corrupt one.
//!
//! # Example
//!
//! ```
//! use obf_cluster::{spawn_in_proc_workers, Coordinator};
//! use obf_uncertain::{DegreeDistMethod, UncertainGraph};
//! use obf_graph::Graph;
//!
//! let original = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let published = UncertainGraph::new(4, vec![(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.8)]).unwrap();
//!
//! let mut coord = Coordinator::new(spawn_in_proc_workers(3));
//! coord.load_graph(&published).unwrap();
//! let check = coord
//!     .check(&original, 2, DegreeDistMethod::Exact, 2)
//!     .unwrap();
//! assert!(check.eps_achieved >= 0.0);
//! coord.shutdown().unwrap();
//! ```

// `unsafe` in this workspace is confined to audited modules (see
// docs/AUDIT.md, rule unsafe-hygiene); within them, every unsafe
// operation must sit in its own `unsafe` block with a SAFETY note.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod coordinator;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::Coordinator;
pub use transport::{
    in_proc_pair, InProcTransport, SocketTransport, Transport, TransportError, MAX_WIRE_FRAME,
};
pub use wire::{WireError, WorkerRequest, WorkerResponse};
pub use worker::{run_worker_listener, serve, spawn_in_proc_workers, spawn_socket_workers, Worker};

use std::fmt;

/// Why a distributed operation failed. Every variant names the worker
/// (by scatter index) so a flaky partition is attributable; none of
/// them can be confused with a successful-but-different answer.
#[derive(Debug)]
pub enum ClusterError {
    /// An operation that needs a loaded graph ran before `load_graph`.
    NoGraph,
    /// The transport to a worker died (process killed, socket reset,
    /// channel closed) before the reply arrived.
    WorkerLost { worker: usize, detail: String },
    /// A worker's reply frame failed to decode.
    Wire { worker: usize, error: WireError },
    /// A worker replied with its typed error message.
    Worker { worker: usize, message: String },
    /// A worker replied with a well-formed frame of the wrong shape
    /// (wrong variant, mismatched chunk range, wrong vertex count, ...).
    Protocol { worker: usize, detail: String },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoGraph => write!(f, "no graph loaded: call load_graph first"),
            ClusterError::WorkerLost { worker, detail } => {
                write!(f, "worker {worker} lost: {detail}")
            }
            ClusterError::Wire { worker, error } => {
                write!(f, "worker {worker} sent an undecodable frame: {error}")
            }
            ClusterError::Worker { worker, message } => {
                write!(f, "worker {worker} reported an error: {message}")
            }
            ClusterError::Protocol { worker, detail } => {
                write!(f, "worker {worker} protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl ClusterError {
    /// Classifies a transport failure while talking to worker `worker`.
    pub(crate) fn from_transport(worker: usize, error: TransportError) -> Self {
        ClusterError::WorkerLost {
            worker,
            detail: error.to_string(),
        }
    }
}
