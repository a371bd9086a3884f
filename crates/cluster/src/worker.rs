//! The worker side: a loaded graph plus a request handler, and serve
//! loops that bind a [`Worker`] to a [`Transport`].
//!
//! A worker is deliberately dumb: it holds one graph and answers one
//! request at a time. All partitioning decisions (which chunks, which
//! world indices) live in the coordinator; the worker is a row source
//! for the same kernels the single-process engine runs —
//! [`obf_core::chunk_entropy_partials`] derives each chunk's rows on
//! the fly and accumulates them with the Definition 2 kernel
//! ([`obf_core::definition2`]) over the *globally fixed* chunking, and
//! [`obf_uncertain::sample_indexed_world`] walks the seed-indexed world
//! stream — which is what makes the distributed answer bit-identical.

use crate::transport::{Transport, TransportError};
use crate::wire::{decode_request_traced, encode_response, WorkerRequest, WorkerResponse};
use obf_core::chunk_entropy_partials;
use obf_graph::Parallelism;
use obf_obs::metrics::labeled;
use obf_obs::{Span, TraceId, TraceScope};
use obf_uncertain::{decode_snapshot, sample_indexed_world, UncertainGraph};
use std::net::TcpListener;

/// Largest world count one `SampleWorlds` request may demand.
pub const MAX_SAMPLE_WORLDS: u64 = 1_000_000;

/// One worker: at most one loaded graph and a pure request handler.
#[derive(Default)]
pub struct Worker {
    graph: Option<UncertainGraph>,
}

impl Worker {
    pub fn new() -> Self {
        Worker::default()
    }

    /// Answers one request. Never panics on hostile input — every
    /// failure is a [`WorkerResponse::Error`].
    pub fn handle(&mut self, req: &WorkerRequest) -> WorkerResponse {
        match req {
            WorkerRequest::Ping => WorkerResponse::Pong,
            WorkerRequest::Shutdown => WorkerResponse::Bye,
            WorkerRequest::LoadGraph { snapshot } => match decode_snapshot(snapshot) {
                Ok(g) => {
                    let resp = WorkerResponse::Loaded {
                        n: g.num_vertices() as u64,
                        candidates: g.num_candidates() as u64,
                    };
                    self.graph = Some(g);
                    resp
                }
                Err(e) => WorkerResponse::Error {
                    message: format!("snapshot rejected: {e}"),
                },
            },
            WorkerRequest::CheckChunks {
                method,
                chunk_size,
                first_chunk,
                n_chunks,
                omegas,
            } => self.check_chunks(*method, *chunk_size, *first_chunk, *n_chunks, omegas),
            WorkerRequest::SampleWorlds {
                master_seed,
                start,
                count,
            } => self.sample_worlds(*master_seed, *start, *count),
        }
    }

    fn check_chunks(
        &self,
        method: obf_uncertain::DegreeDistMethod,
        chunk_size: u64,
        first_chunk: u64,
        n_chunks: u64,
        omegas: &[u64],
    ) -> WorkerResponse {
        let Some(g) = self.graph.as_ref() else {
            return WorkerResponse::Error {
                message: "no graph loaded".into(),
            };
        };
        if omegas.is_empty() {
            return WorkerResponse::Error {
                message: "CheckChunks needs at least one omega".into(),
            };
        }
        let Ok(chunk_size) = usize::try_from(chunk_size) else {
            return WorkerResponse::Error {
                message: "chunk_size does not fit in usize".into(),
            };
        };
        if chunk_size == 0 {
            return WorkerResponse::Error {
                message: "chunk_size must be at least 1".into(),
            };
        }
        let n = g.num_vertices();
        let par = Parallelism::sequential().with_chunk_size(chunk_size);
        let total_chunks = par.num_chunks(n) as u64;
        let Some(end_chunk) = first_chunk.checked_add(n_chunks) else {
            return WorkerResponse::Error {
                message: "chunk range overflows".into(),
            };
        };
        if end_chunk > total_chunks {
            return WorkerResponse::Error {
                message: format!(
                    "chunk range {first_chunk}..{end_chunk} exceeds the {total_chunks} \
                     chunks of {n} vertices at chunk_size {chunk_size}"
                ),
            };
        }
        let omegas_usize: Vec<usize> = match omegas
            .iter()
            .map(|&w| usize::try_from(w))
            .collect::<Result<_, _>>()
        {
            Ok(v) => v,
            Err(_) => {
                return WorkerResponse::Error {
                    message: "omega does not fit in usize".into(),
                }
            }
        };
        let mut mass = Vec::with_capacity(n_chunks as usize);
        let mut xlogx = Vec::with_capacity(n_chunks as usize);
        for chunk in first_chunk..end_chunk {
            let range = par.chunk_range(n, chunk as usize);
            let partials = chunk_entropy_partials(g, method, &omegas_usize, range);
            mass.push(partials.mass);
            xlogx.push(partials.xlogx);
        }
        WorkerResponse::ChunkPartials {
            first_chunk,
            mass,
            xlogx,
        }
    }

    fn sample_worlds(&self, master_seed: u64, start: u64, count: u64) -> WorkerResponse {
        let Some(g) = self.graph.as_ref() else {
            return WorkerResponse::Error {
                message: "no graph loaded".into(),
            };
        };
        if count > MAX_SAMPLE_WORLDS {
            return WorkerResponse::Error {
                message: format!("world count {count} exceeds the {MAX_SAMPLE_WORLDS} cap"),
            };
        }
        let Some(end) = start.checked_add(count) else {
            return WorkerResponse::Error {
                message: "world range overflows".into(),
            };
        };
        let mut worlds = Vec::with_capacity(count as usize);
        for index in start..end {
            let world = sample_indexed_world(g, master_seed, index as usize);
            worlds.push(world.edges().collect());
        }
        WorkerResponse::Worlds {
            start,
            n_vertices: g.num_vertices() as u64,
            worlds,
        }
    }
}

/// Why a serve loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// The coordinator sent [`WorkerRequest::Shutdown`].
    Shutdown,
    /// The coordinator closed the transport.
    PeerClosed,
}

/// The canonical metric label of a worker request kind.
fn req_label(req: &WorkerRequest) -> &'static str {
    match req {
        WorkerRequest::Ping => "ping",
        WorkerRequest::LoadGraph { .. } => "load_graph",
        WorkerRequest::CheckChunks { .. } => "check_chunks",
        WorkerRequest::SampleWorlds { .. } => "sample_worlds",
        WorkerRequest::Shutdown => "shutdown",
    }
}

/// Serves one coordinator over one transport until shutdown or
/// disconnect. Undecodable request frames get a typed
/// [`WorkerResponse::Error`] reply and the loop keeps going — a
/// coordinator bug can not wedge a worker.
///
/// A trace id carried on the request frame (see
/// [`crate::wire::TAG_TRACED`]) scopes the handling — the worker's
/// `obf_worker_handle_micros{req=...}` span and anything the kernels
/// record attribute to the coordinator's trace. Tracing never changes
/// a response byte.
pub fn serve<T: Transport>(transport: &mut T) -> Result<ServeExit, TransportError> {
    let mut worker = Worker::new();
    loop {
        let frame = match transport.recv() {
            Ok(f) => f,
            Err(TransportError::Closed) => return Ok(ServeExit::PeerClosed),
            Err(e) => return Err(e),
        };
        match decode_request_traced(&frame) {
            Ok((req, trace)) => {
                let _scope = TraceScope::enter(TraceId(trace.unwrap_or(0)));
                let span = Span::start(
                    obf_obs::global(),
                    &labeled("obf_worker_handle_micros", &[("req", req_label(&req))]),
                );
                let resp = worker.handle(&req);
                span.finish();
                transport.send(&encode_response(&resp))?;
                if matches!(req, WorkerRequest::Shutdown) {
                    return Ok(ServeExit::Shutdown);
                }
            }
            Err(e) => {
                let resp = WorkerResponse::Error {
                    message: format!("bad request frame: {e}"),
                };
                transport.send(&encode_response(&resp))?;
            }
        }
    }
}

/// Spawns `n` worker threads in this process, each behind an in-proc
/// transport; returns the coordinator ends.
pub fn spawn_in_proc_workers(n: usize) -> Vec<Box<dyn Transport>> {
    (0..n.max(1))
        .map(|_| {
            let (coord_end, mut worker_end) = crate::transport::in_proc_pair();
            std::thread::spawn(move || {
                let _ = serve(&mut worker_end);
            });
            Box::new(coord_end) as Box<dyn Transport>
        })
        .collect()
}

/// Spawns `n` worker threads each listening on its own loopback socket
/// and returns connected socket transports — the full wire path
/// (framing, codec, TCP) without separate OS processes.
pub fn spawn_socket_workers(n: usize) -> std::io::Result<Vec<Box<dyn Transport>>> {
    let mut out: Vec<Box<dyn Transport>> = Vec::with_capacity(n.max(1));
    for _ in 0..n.max(1) {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                if let Ok(mut t) = crate::transport::SocketTransport::from_stream(stream) {
                    let _ = serve(&mut t);
                }
            }
        });
        out.push(Box::new(crate::transport::SocketTransport::connect(addr)?));
    }
    Ok(out)
}

/// Accept loop for a standalone worker process (`cluster_worker` bin):
/// serves one coordinator at a time; returns when a coordinator sends
/// `Shutdown` (peer disconnects just recycle the listener).
pub fn run_worker_listener(listener: TcpListener) -> std::io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        let mut t = crate::transport::SocketTransport::from_stream(stream)?;
        match serve(&mut t) {
            Ok(ServeExit::Shutdown) => return Ok(()),
            // Peer disconnects and transport errors kill the
            // connection, not the worker.
            Ok(ServeExit::PeerClosed) | Err(_) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_uncertain::snapshot_bytes;

    fn toy_graph() -> UncertainGraph {
        UncertainGraph::new(5, vec![(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.25), (3, 4, 1.0)]).unwrap()
    }

    #[test]
    fn handles_before_load_are_typed_errors() {
        let mut w = Worker::new();
        for req in [
            WorkerRequest::CheckChunks {
                method: obf_uncertain::DegreeDistMethod::Exact,
                chunk_size: 2,
                first_chunk: 0,
                n_chunks: 1,
                omegas: vec![1],
            },
            WorkerRequest::SampleWorlds {
                master_seed: 1,
                start: 0,
                count: 1,
            },
        ] {
            assert!(
                matches!(w.handle(&req), WorkerResponse::Error { .. }),
                "{req:?}"
            );
        }
    }

    #[test]
    fn load_then_check_matches_direct_kernel_call() {
        let g = toy_graph();
        let mut w = Worker::new();
        let loaded = w.handle(&WorkerRequest::LoadGraph {
            snapshot: snapshot_bytes(&g),
        });
        assert_eq!(
            loaded,
            WorkerResponse::Loaded {
                n: 5,
                candidates: 4
            }
        );

        let resp = w.handle(&WorkerRequest::CheckChunks {
            method: obf_uncertain::DegreeDistMethod::Exact,
            chunk_size: 2,
            first_chunk: 1,
            n_chunks: 2,
            omegas: vec![0, 1, 2],
        });
        let WorkerResponse::ChunkPartials {
            first_chunk,
            mass,
            xlogx,
        } = resp
        else {
            panic!("expected partials, got {resp:?}");
        };
        assert_eq!(first_chunk, 1);
        assert_eq!(mass.len(), 2);
        let direct =
            chunk_entropy_partials(&g, obf_uncertain::DegreeDistMethod::Exact, &[0, 1, 2], 2..4);
        assert_eq!(mass[0], direct.mass);
        assert_eq!(xlogx[0], direct.xlogx);
    }

    #[test]
    fn out_of_range_chunks_and_zero_chunk_size_rejected() {
        let mut w = Worker::new();
        w.handle(&WorkerRequest::LoadGraph {
            snapshot: snapshot_bytes(&toy_graph()),
        });
        for (chunk_size, first_chunk, n_chunks) in [(2, 2, 2), (0, 0, 1), (1, u64::MAX, 2)] {
            let resp = w.handle(&WorkerRequest::CheckChunks {
                method: obf_uncertain::DegreeDistMethod::Exact,
                chunk_size,
                first_chunk,
                n_chunks,
                omegas: vec![1],
            });
            assert!(
                matches!(resp, WorkerResponse::Error { .. }),
                "cs={chunk_size} fc={first_chunk} nc={n_chunks}: {resp:?}"
            );
        }
    }

    #[test]
    fn sampled_worlds_match_indexed_stream() {
        let g = toy_graph();
        let mut w = Worker::new();
        w.handle(&WorkerRequest::LoadGraph {
            snapshot: snapshot_bytes(&g),
        });
        let resp = w.handle(&WorkerRequest::SampleWorlds {
            master_seed: 42,
            start: 3,
            count: 4,
        });
        let WorkerResponse::Worlds {
            start,
            n_vertices,
            worlds,
        } = resp
        else {
            panic!("expected worlds, got {resp:?}");
        };
        assert_eq!((start, n_vertices), (3, 5));
        assert_eq!(worlds.len(), 4);
        for (i, edges) in worlds.iter().enumerate() {
            let expected: Vec<(u32, u32)> = sample_indexed_world(&g, 42, 3 + i).edges().collect();
            assert_eq!(edges, &expected, "world {}", 3 + i);
        }
    }

    #[test]
    fn serve_survives_garbage_and_answers_after() {
        let (mut coord, mut worker_end) = crate::transport::in_proc_pair();
        let handle = std::thread::spawn(move || serve(&mut worker_end));
        coord.send(&[0xff, 0xee, 0xdd]).unwrap();
        let reply = crate::wire::decode_response(&coord.recv().unwrap()).unwrap();
        assert!(matches!(reply, WorkerResponse::Error { .. }));
        coord
            .send(&crate::wire::encode_request(&WorkerRequest::Ping))
            .unwrap();
        let reply = crate::wire::decode_response(&coord.recv().unwrap()).unwrap();
        assert_eq!(reply, WorkerResponse::Pong);
        coord
            .send(&crate::wire::encode_request(&WorkerRequest::Shutdown))
            .unwrap();
        let reply = crate::wire::decode_response(&coord.recv().unwrap()).unwrap();
        assert_eq!(reply, WorkerResponse::Bye);
        assert_eq!(handle.join().unwrap().unwrap(), ServeExit::Shutdown);
    }
}
