//! Integration tests: a real server on an ephemeral port, concurrent
//! clients, and the determinism guarantee — the same query returns the
//! bit-identical answer regardless of how many connections are hammering
//! the server or how the cache is warmed.

use std::sync::Arc;
use std::time::Duration;

use obf_server::{Client, Server, ServerConfig};
use obf_uncertain::UncertainGraph;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A mid-sized uncertain graph with mixed probabilities.
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

/// The mixed query script loadgen also uses, as a pure function of a
/// stream index.
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

#[test]
fn concurrent_clients_get_identical_answers() {
    let g = published_graph(40, 1);
    let server = Server::bind(g, "127.0.0.1:0", 512).unwrap();
    let addr = server.addr();

    let run_script = move || {
        let mut c = Client::connect(addr).unwrap();
        (0..48)
            .map(|i| c.request(&query(i)).unwrap())
            .collect::<Vec<_>>()
    };

    // 8 concurrent connections all run the same script...
    let handles: Vec<_> = (0..8).map(|_| std::thread::spawn(run_script)).collect();
    let transcripts: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // ...and every transcript is bit-identical: no answer depends on
    // scheduling, cache warmth, or which thread sampled a world first.
    for t in &transcripts[1..] {
        assert_eq!(t, &transcripts[0]);
    }
    for reply in &transcripts[0] {
        assert!(reply.starts_with("OK "), "protocol error: {reply}");
    }

    // The cache actually served: 8 connections × the same STAT worlds
    // must be mostly hits.
    let stats = server.state().cache_stats();
    assert!(stats.hits > stats.misses, "stats={stats:?}");
    server.shutdown();
}

#[test]
fn answers_identical_across_separate_servers_and_cache_sizes() {
    // Two servers over the same published graph — one with a cold tiny
    // cache, one with a big one — must answer the script identically:
    // the cache is a performance artifact, never a semantic one.
    let transcripts: Vec<Vec<String>> = [1usize, 4096]
        .iter()
        .map(|&capacity| {
            let server = Server::bind(published_graph(40, 1), "127.0.0.1:0", capacity).unwrap();
            let mut c = Client::connect(server.addr()).unwrap();
            let replies = (0..48).map(|i| c.request(&query(i)).unwrap()).collect();
            server.shutdown();
            replies
        })
        .collect();
    assert_eq!(transcripts[0], transcripts[1]);
}

#[test]
fn malformed_requests_answered_with_err_and_connection_survives() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.request("NO_SUCH_VERB 1 2 3").unwrap().starts_with("ERR "));
    assert!(c
        .request("EXPECTED_DEGREE 1000")
        .unwrap()
        .starts_with("ERR "));
    // The connection still works after errors.
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    assert_eq!(server.state().protocol_errors(), 2);
    server.shutdown();
}

#[test]
fn quit_closes_the_connection() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("QUIT").unwrap(), "OK bye");
    // The server closed its half; the next request cannot get a reply.
    assert!(c.request("PING").is_err());
    server.shutdown();
}

#[test]
fn shutdown_command_stops_the_accept_loop() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK shutting down");
    // join() returns because the protocol command closed the listener —
    // this is the path that keeps scripted runs from hanging CI.
    assert!(server.state().shutdown_requested());
    server.join();
    // New connections may still be accepted by the OS backlog, but the
    // accept loop is gone: a PING on a fresh connection gets no reply.
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.request("PING").is_err());
    }
}

#[test]
fn idle_connections_are_reaped() {
    let server = Server::bind_with(
        published_graph(10, 3),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 16,
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    // Sit idle past the timeout: the server closes its half, so the
    // next request cannot get a reply...
    std::thread::sleep(Duration::from_millis(400));
    assert!(c.request("PING").is_err());
    // ...but a fresh connection is served normally.
    let mut c2 = Client::connect(server.addr()).unwrap();
    assert_eq!(c2.request("PING").unwrap(), "OK pong");
    server.shutdown();
}

/// Two releases of an evolving publication, swapped under load. Four
/// client threads run a graph-dependent script over short connections
/// while an admin issues `RELOAD`. The single-process contract: no
/// connect or request fails, every reply is one release's in-process
/// answer, the epochs one connection sees never decrease, a connection
/// opened after the `RELOAD` reply sees only the new release, and no
/// cached world outlives its epoch.
#[test]
fn reload_under_load_drops_no_connections_and_no_stale_worlds() {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Deterministic, graph-dependent queries: the two releases below
    /// answer every one differently.
    const SCRIPT: [&str; 4] = [
        "EXPECTED num_edges",
        "EXPECTED avg_degree",
        "DEGREE_DIST 0",
        "STAT num_edges 8 5",
    ];
    let release =
        |edges: [(u32, u32, f64); 5]| Arc::new(UncertainGraph::new(6, edges.to_vec()).unwrap());
    let g0 = release([
        (0, 1, 0.9),
        (1, 2, 0.5),
        (2, 3, 0.7),
        (3, 4, 0.4),
        (4, 5, 0.8),
    ]);
    let g1 = release([
        (0, 1, 0.2),
        (0, 2, 0.6),
        (2, 3, 0.3),
        (3, 5, 0.9),
        (1, 4, 0.55),
    ]);
    let canonical = |g: &Arc<UncertainGraph>| -> Vec<String> {
        let state = obf_server::ServerState::new(Arc::clone(g), 64);
        SCRIPT.iter().map(|q| state.answer(q)).collect()
    };
    let (old, new) = (Arc::new(canonical(&g0)), Arc::new(canonical(&g1)));
    for (o, n) in old.iter().zip(new.iter()) {
        assert_ne!(o, n, "the two releases must answer every query differently");
    }

    let dir = std::env::temp_dir().join(format!("obf_server_itest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (p1, p2) = (dir.join("r1.snap"), dir.join("r2.snap"));
    obf_uncertain::save_snapshot(&g1, &p1).unwrap();
    obf_uncertain::save_snapshot(&g0, &p2).unwrap();

    let server = Server::bind(Arc::clone(&g0), "127.0.0.1:0", 64).unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let reloaded = Arc::new(AtomicBool::new(false));

    /// What one client thread saw, over all its connections.
    #[derive(Default)]
    struct Seen {
        opened_after_reload: usize,
        old_replies: usize,
        new_replies: usize,
        violations: Vec<String>,
    }

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let (stop, reloaded) = (Arc::clone(&stop), Arc::clone(&reloaded));
            let (old, new) = (Arc::clone(&old), Arc::clone(&new));
            std::thread::spawn(move || {
                let mut seen = Seen::default();
                while !stop.load(Ordering::Relaxed) {
                    // Read before connecting: when set, the swap had
                    // completed before this connection existed.
                    let after_reload = reloaded.load(Ordering::SeqCst);
                    let mut c = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            seen.violations.push(format!("connect failed: {e}"));
                            continue;
                        }
                    };
                    seen.opened_after_reload += usize::from(after_reload);
                    let mut last_epoch = 0u64;
                    for (i, q) in SCRIPT.iter().enumerate().cycle().take(3 * SCRIPT.len()) {
                        let (Ok(reply), Ok(info)) = (c.request(q), c.request("INFO")) else {
                            seen.violations.push(format!("request failed after {q}"));
                            break;
                        };
                        // The release that answered, as an epoch.
                        let reply_epoch = if reply == new[i] {
                            seen.new_replies += 1;
                            1
                        } else if reply == old[i] && !after_reload {
                            seen.old_replies += 1;
                            0
                        } else {
                            seen.violations
                                .push(format!("{q} -> {reply} (after_reload={after_reload})"));
                            0
                        };
                        let epoch: u64 = info
                            .split_whitespace()
                            .find_map(|t| t.strip_prefix("epoch="))
                            .and_then(|e| e.parse().ok())
                            .unwrap_or(u64::MAX);
                        if epoch < last_epoch.max(reply_epoch)
                            || epoch > 1
                            || (after_reload && epoch != 1)
                        {
                            seen.violations.push(format!(
                                "INFO epoch {epoch} after {last_epoch} \
                                 (after_reload={after_reload}): {info}"
                            ));
                        }
                        last_epoch = epoch;
                    }
                    let _ = c.request("QUIT");
                }
                seen
            })
        })
        .collect();

    // Traffic and a warm cache on the old release, then the swap.
    std::thread::sleep(Duration::from_millis(150));
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(admin.request(SCRIPT[3]).unwrap(), old[3]);
    let reply = admin.request(&format!("RELOAD {}", p1.display())).unwrap();
    assert!(reply.starts_with("OK reloaded epoch=1 n=6"), "{reply}");
    reloaded.store(true, Ordering::SeqCst);

    // No cross-epoch answer reuse: the same STAT now matches a fresh
    // out-of-band sample of the *new* release, bit for bit.
    let after = admin.request(SCRIPT[3]).unwrap();
    let values: Vec<f64> = (0..8)
        .map(|i| obf_uncertain::sample_indexed_world(&g1, 5, i).num_edges() as f64)
        .collect();
    let mean = values.iter().sum::<f64>() / 8.0;
    assert!(after.starts_with(&format!("OK mean={mean} ")), "{after}");
    let cache = admin.request("CACHE_STATS").unwrap();
    assert!(cache.contains("epoch=1"), "{cache}");
    assert!(!cache.contains("invalidations=0"), "{cache}");

    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let mut total = Seen::default();
    for t in clients {
        let seen = t.join().unwrap();
        total.opened_after_reload += seen.opened_after_reload;
        total.old_replies += seen.old_replies;
        total.new_replies += seen.new_replies;
        total.violations.extend(seen.violations);
    }
    assert!(total.violations.is_empty(), "{:#?}", total.violations);
    assert!(total.old_replies > 0, "no reply came from the old release");
    assert!(
        total.opened_after_reload > 0 && total.new_replies > 0,
        "no connection opened after the reload"
    );

    // A second swap bumps the epoch again.
    let reply = admin.request(&format!("RELOAD {}", p2.display())).unwrap();
    assert!(reply.starts_with("OK reloaded epoch=2 n=6"), "{reply}");
    assert_eq!(admin.request("HEALTH").unwrap(), "OK ok epoch=2 n=6");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A reply too large for one frame is an `ERR` naming its size, equal to
/// the in-process answer, and the connection stays in sync: the next
/// request on it is answered normally.
#[test]
fn oversized_reply_is_an_err_and_the_connection_stays_in_sync() {
    // A 60,000-leaf star: NEIGHBORHOOD 0 lists every leaf with its
    // probability, about 1.5 MB of text.
    let mut rng = SmallRng::seed_from_u64(3);
    let leaves = 60_000u32;
    let cands: Vec<(u32, u32, f64)> = (1..=leaves).map(|v| (0, v, rng.gen::<f64>())).collect();
    let g = Arc::new(UncertainGraph::new(leaves as usize + 1, cands).unwrap());
    let reference = obf_server::ServerState::new(Arc::clone(&g), 16).answer("NEIGHBORHOOD 0");
    let server = Server::bind(g, "127.0.0.1:0", 16).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let reply = c.request("NEIGHBORHOOD 0").unwrap();
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    assert!(
        reply.starts_with("ERR reply of ")
            && reply.ends_with(" bytes exceeds the 1048576-byte frame cap"),
        "{:.120}",
        reply
    );
    assert_eq!(
        reply, reference,
        "the wire and the in-process answer differ"
    );
    // Small neighborhoods of the same graph still answer.
    assert!(c.request("NEIGHBORHOOD 7").unwrap().starts_with("OK 0:"));
    assert_eq!(server.state().protocol_errors(), 1);
    server.shutdown();
}

/// An `ERR` that echoes a request token is capped like an `OK` reply: a
/// one-token request of exactly `MAX_FRAME` bytes, or a shorter one whose
/// escaped echo outgrows the cap, gets the over-cap `ERR`, the
/// connection stays in sync, and the server keeps serving.
#[test]
fn oversized_err_echo_is_capped_and_the_server_keeps_serving() {
    use std::io::Write;
    use std::net::TcpStream;

    let g = published_graph(40, 1);
    let reference = obf_server::ServerState::new(Arc::clone(&g), 16);
    let server = Server::bind(g, "127.0.0.1:0", 16).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let max_frame = 1usize << 20;
    for token in ["A".repeat(max_frame), "\u{1}".repeat(220_000)] {
        let mut frame = (token.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(token.as_bytes());
        stream.write_all(&frame).unwrap();
        let reply = obf_server::read_frame(&stream).unwrap().unwrap();
        assert!(
            reply.starts_with("ERR reply of ")
                && reply.ends_with(" bytes exceeds the 1048576-byte frame cap"),
            "{:.120}",
            reply
        );
        assert_eq!(reply, reference.answer(&token));
    }
    obf_server::write_frame(&stream, "PING").unwrap();
    assert_eq!(obf_server::read_frame(&stream).unwrap().unwrap(), "OK pong");
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_eq!(fresh.request("PING").unwrap(), "OK pong");
    assert_eq!(server.state().protocol_errors(), 2);
    server.shutdown();
}
