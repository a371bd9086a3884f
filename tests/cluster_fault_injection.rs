//! Fault injection for the scale-out layer: every failure mode must
//! surface as a *typed* error or a clean degradation — never a wrong
//! answer, never a panic.
//!
//! Two fronts: a worker dying mid-reduction, and hostile bytes on the
//! worker wire (extending the `fuzz_protocol.rs` idiom from
//! `obf_server` to the binary worker codec).

use obf_cluster::wire::{decode_request, decode_response, encode_request, encode_response};
use obf_cluster::{
    in_proc_pair, spawn_in_proc_workers, ClusterError, Coordinator, Transport, Worker,
    WorkerRequest, WorkerResponse,
};
use obf_uncertain::{snapshot_bytes, DegreeDistMethod, UncertainGraph};
use proptest::prelude::*;

fn published() -> UncertainGraph {
    UncertainGraph::new(
        6,
        vec![
            (0, 1, 0.9),
            (1, 2, 0.5),
            (2, 3, 0.7),
            (3, 4, 0.4),
            (4, 5, 0.8),
        ],
    )
    .unwrap()
}

/// A worker that answers correctly until `die_after` requests have
/// been served, then vanishes mid-conversation (transport dropped).
fn dying_worker(die_after: usize) -> Box<dyn Transport> {
    let (coord_end, mut worker_end) = in_proc_pair();
    std::thread::spawn(move || {
        let mut worker = Worker::new();
        for _ in 0..die_after {
            let Ok(frame) = worker_end.recv() else { return };
            let resp = match decode_request(&frame) {
                Ok(req) => worker.handle(&req),
                Err(e) => WorkerResponse::Error {
                    message: format!("bad request frame: {e}"),
                },
            };
            if worker_end.send(&encode_response(&resp)).is_err() {
                return;
            }
        }
        // Killed mid-reduction: the next request gets no reply, ever.
    });
    Box::new(coord_end)
}

/// A worker that replies to every request with raw garbage bytes.
fn garbage_worker(garbage: Vec<u8>) -> Box<dyn Transport> {
    let (coord_end, mut worker_end) = in_proc_pair();
    std::thread::spawn(move || loop {
        if worker_end.recv().is_err() || worker_end.send(&garbage).is_err() {
            return;
        }
    });
    Box::new(coord_end)
}

#[test]
fn worker_killed_mid_reduction_is_typed_error_not_wrong_answer() {
    let g = published();
    // Worker 1 serves the LoadGraph handshake, then dies before its
    // CheckChunks reply.
    let mut workers = spawn_in_proc_workers(1);
    workers.push(dying_worker(1));
    let mut coord = Coordinator::new(workers);
    coord.load_graph(&g).unwrap();
    let err = coord
        .entropies(&[0, 1, 2], DegreeDistMethod::Exact, 1)
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerLost { worker: 1, .. }),
        "expected WorkerLost for worker 1, got: {err}"
    );
}

#[test]
fn worker_killed_mid_sampling_is_typed_error() {
    let g = published();
    let mut workers = spawn_in_proc_workers(1);
    workers.push(dying_worker(1));
    let mut coord = Coordinator::new(workers);
    coord.load_graph(&g).unwrap();
    let err = coord.sample_worlds(8, 7).unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerLost { worker: 1, .. }),
        "{err}"
    );
}

#[test]
fn garbage_worker_reply_is_wire_error() {
    let g = published();
    let mut workers = spawn_in_proc_workers(1);
    workers.push(garbage_worker(vec![0xBA, 0xAD, 0xF0, 0x0D]));
    let mut coord = Coordinator::new(workers);
    let err = coord.load_graph(&g).unwrap_err();
    assert!(matches!(err, ClusterError::Wire { worker: 1, .. }), "{err}");
}

/// A worker whose reply decodes fine but has the wrong shape (chunk
/// range stolen from another worker) must be a protocol error — the
/// coordinator never silently mis-merges partials.
#[test]
fn misrouted_partials_are_protocol_error() {
    let (coord_end, mut worker_end) = in_proc_pair();
    std::thread::spawn(move || {
        let mut worker = Worker::new();
        loop {
            let Ok(frame) = worker_end.recv() else { return };
            let resp = match decode_request(&frame) {
                Ok(WorkerRequest::CheckChunks {
                    method,
                    chunk_size,
                    first_chunk,
                    n_chunks,
                    omegas,
                }) => {
                    // Answer the right chunks but claim the wrong range.
                    match worker.handle(&WorkerRequest::CheckChunks {
                        method,
                        chunk_size,
                        first_chunk,
                        n_chunks,
                        omegas,
                    }) {
                        WorkerResponse::ChunkPartials {
                            first_chunk,
                            mass,
                            xlogx,
                        } => WorkerResponse::ChunkPartials {
                            first_chunk: first_chunk + 1,
                            mass,
                            xlogx,
                        },
                        other => other,
                    }
                }
                Ok(req) => worker.handle(&req),
                Err(e) => WorkerResponse::Error {
                    message: format!("bad request frame: {e}"),
                },
            };
            if worker_end.send(&encode_response(&resp)).is_err() {
                return;
            }
        }
    });
    let mut coord = Coordinator::new(vec![Box::new(coord_end) as Box<dyn Transport>]);
    coord.load_graph(&published()).unwrap();
    let err = coord
        .entropies(&[0, 1], DegreeDistMethod::Exact, 2)
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::Protocol { worker: 0, .. }),
        "{err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The worker codec never panics on arbitrary bytes: decode either
    /// succeeds or returns a typed `WireError`.
    #[test]
    fn worker_codec_never_panics_on_garbage(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Truncating a valid frame at any point is always a typed error,
    /// never a panic and never a silently different message.
    #[test]
    fn truncated_valid_frames_are_typed_errors(
        cut_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let g = published();
        let req = WorkerRequest::CheckChunks {
            method: DegreeDistMethod::Auto { threshold: 30 },
            chunk_size: 2,
            first_chunk: seed % 3,
            n_chunks: 1 + seed % 2,
            omegas: vec![0, 1, 2],
        };
        let frame = encode_request(&req);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        if cut < frame.len() {
            prop_assert!(decode_request(&frame[..cut]).is_err());
        }
        let resp = WorkerResponse::Loaded {
            n: g.num_vertices() as u64,
            candidates: g.num_candidates() as u64,
        };
        let frame = encode_response(&resp);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        if cut < frame.len() {
            prop_assert!(decode_response(&frame[..cut]).is_err());
        }
    }

    /// A serving worker fed garbage frames replies with a typed error
    /// every time and still answers real work afterwards.
    #[test]
    fn worker_serve_loop_survives_garbage_frames(
        mut garbage in proptest::collection::vec(0u8..=255, 1..128),
    ) {
        // Force an invalid wire version so the frame can never decode
        // as a legitimate request by accident.
        garbage[0] = 0xFF;
        let mut workers = spawn_in_proc_workers(1);
        let w = &mut workers[0];
        w.send(&garbage).unwrap();
        let reply = decode_response(&w.recv().unwrap()).unwrap();
        prop_assert!(
            matches!(reply, WorkerResponse::Error { .. }),
            "garbage must be rejected, got {reply:?}"
        );
        // Same worker, real request: still served.
        let g = published();
        w.send(&encode_request(&WorkerRequest::LoadGraph {
            snapshot: snapshot_bytes(&g),
        }))
        .unwrap();
        let reply = decode_response(&w.recv().unwrap()).unwrap();
        prop_assert_eq!(
            reply,
            WorkerResponse::Loaded { n: 6, candidates: 5 }
        );
    }
}
