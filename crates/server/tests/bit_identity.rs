//! Bit-identity regression: the event loop is a *transport*, never a
//! semantic layer. The same query script must produce byte-identical
//! transcripts over the epoll backend, the portable poll backend,
//! pipelined vs one-request-at-a-time submission, and a socket-free
//! [`ServerState`] answering the same lines in process — and the
//! transcript digest must match across all of them.

use std::sync::Arc;

use obf_server::{Client, PollerKind, Server, ServerConfig, ServerState};
use obf_uncertain::UncertainGraph;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn published_graph(n: usize, seed: u64) -> Arc<UncertainGraph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cands = Vec::new();
    for u in 0..n as u32 {
        for step in 1..=3u32 {
            let v = (u + step) % n as u32;
            if u < v {
                cands.push((u, v, rng.gen::<f64>()));
            }
        }
    }
    Arc::new(UncertainGraph::new(n, cands).unwrap())
}

/// The loadgen probe mix: every answer kind that feeds the published
/// `answers_digest`, as a pure function of the stream index.
fn query(i: usize) -> String {
    match i % 6 {
        0 => format!("EXPECTED_DEGREE {}", i % 40),
        1 => format!("DEGREE_DIST {}", i % 40),
        2 => format!("NEIGHBORHOOD {}", i % 40),
        3 => "EXPECTED degree_variance".to_string(),
        4 => format!("STAT num_edges {} 42 0.5", 5 + i % 7),
        _ => format!("STAT clustering {} 7", 3 + i % 5),
    }
}

const SCRIPT_LEN: usize = 96;

/// FNV-1a over the framed transcript, the same fold loadgen publishes
/// as `answers_digest`.
fn digest(replies: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in replies {
        for &b in r.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn config(poller: PollerKind) -> ServerConfig {
    ServerConfig {
        world_cache_capacity: 256,
        poller,
        ..ServerConfig::default()
    }
}

fn transcript_with(config: ServerConfig) -> Vec<String> {
    let server = Server::bind_with(published_graph(40, 1), "127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let replies = (0..SCRIPT_LEN)
        .map(|i| c.request(&query(i)).unwrap())
        .collect();
    server.shutdown();
    replies
}

#[test]
fn event_loop_matches_in_process_answers_bit_for_bit() {
    // The reference: the same `answer` the event loop calls, on a fresh
    // state of the same graph and cache size, with no socket at all.
    let state = ServerState::new(published_graph(40, 1), 256);
    let in_process: Vec<String> = (0..SCRIPT_LEN).map(|i| state.answer(&query(i))).collect();
    let event = transcript_with(config(PollerKind::default()));
    assert_eq!(event, in_process, "event loop changed an answer");
    assert_eq!(digest(&event), digest(&in_process));
    for reply in &in_process {
        assert!(
            reply.starts_with("OK "),
            "protocol error in script: {reply}"
        );
    }
}

#[test]
fn epoll_and_poll_backends_are_interchangeable() {
    let poll = transcript_with(config(PollerKind::Poll));
    let default = transcript_with(config(PollerKind::default()));
    assert_eq!(default, poll, "poller backend changed an answer");
}

#[test]
fn pipelined_and_serial_submission_agree() {
    let serial = transcript_with(config(PollerKind::default()));

    // The same script submitted as pipelined bursts: all requests of a
    // burst written before any reply is read. Replies must come back in
    // order and byte-identical to the one-at-a-time transcript.
    let server = Server::bind_with(
        published_graph(40, 1),
        "127.0.0.1:0",
        config(PollerKind::default()),
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let mut pipelined = Vec::with_capacity(SCRIPT_LEN);
    for burst in (0..SCRIPT_LEN).collect::<Vec<_>>().chunks(7) {
        let lines: Vec<String> = burst.iter().map(|&i| query(i)).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        pipelined.extend(c.pipeline(&refs).unwrap());
    }
    server.shutdown();

    assert_eq!(pipelined, serial, "pipelining changed an answer");
    assert_eq!(digest(&pipelined), digest(&serial));
}

#[test]
fn transcripts_are_stable_across_runs_of_the_same_mode() {
    // Two independent servers, same mode: the digest is a function of
    // the published graph and the script alone.
    let a = transcript_with(config(PollerKind::default()));
    let b = transcript_with(config(PollerKind::default()));
    assert_eq!(digest(&a), digest(&b));
}
