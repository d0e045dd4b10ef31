//! Protocol robustness: malformed wire input — truncated frames,
//! oversized length prefixes, garbage bytes, mid-stream disconnects, and
//! a fuzz-style loop of PRNG-mutated valid frames — always produces a
//! clean typed error (or a clean close), never a panic or a hang.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sctc_server::protocol::{Reply, Request, ERR_BAD_REQUEST, MAGIC, VERSION};
use sctc_server::wire::{encode_frame, FrameBuf, WireError, MAX_FRAME};
use sctc_server::{spawn, Client, JobOptions, JobSpec, ServerConfig};

fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Reads frames until the peer closes; returns every decoded reply.
fn drain_replies(stream: &mut TcpStream) -> Vec<Reply> {
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 4096];
    let mut replies = Vec::new();
    loop {
        match buf.take_frame() {
            Ok(Some((tag, payload))) => {
                if let Ok(reply) = Reply::decode(tag, &payload) {
                    replies.push(reply);
                }
                continue;
            }
            Ok(None) => {}
            Err(_) => break,
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.push(&chunk[..n]),
            Err(_) => break,
        }
    }
    replies
}

fn hello_frame() -> Vec<u8> {
    let (tag, payload) = Request::Hello {
        magic: MAGIC,
        version: VERSION,
    }
    .encode();
    encode_frame(tag, &payload)
}

#[test]
fn truncated_frame_yields_typed_error_not_hang() {
    let mut server = spawn(ServerConfig::default()).unwrap();
    let mut stream = raw_connect(server.addr());
    // Announce 100 payload bytes, send 3, hang up.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[0x01, 0x02, 0x03]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let replies = drain_replies(&mut stream);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Reply::Error { code, .. } if *code == ERR_BAD_REQUEST)),
        "truncated frame must earn a typed error: {replies:?}"
    );
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_before_any_payload() {
    let mut server = spawn(ServerConfig::default()).unwrap();
    let mut stream = raw_connect(server.addr());
    stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    let replies = drain_replies(&mut stream);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Reply::Error { code, .. } if *code == ERR_BAD_REQUEST)),
        "oversized prefix must earn a typed error: {replies:?}"
    );
    server.shutdown();
}

#[test]
fn garbage_bytes_are_refused_cleanly() {
    let mut server = spawn(ServerConfig::default()).unwrap();
    // Garbage as the very first frame (a plausible-length prefix followed
    // by junk decodes to a bad tag / bad payload, never a panic).
    let mut stream = raw_connect(server.addr());
    let garbage = [
        9u8, 0, 0, 0, 0x7F, 0xFF, 0x00, 0xAB, 0xCD, 0x12, 0x34, 0x56, 0x78,
    ];
    stream.write_all(&garbage).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let replies = drain_replies(&mut stream);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Reply::Error { code, .. } if *code == ERR_BAD_REQUEST)),
        "garbage must earn a typed error: {replies:?}"
    );

    // Garbage after a valid handshake: same contract.
    let mut stream = raw_connect(server.addr());
    stream.write_all(&hello_frame()).unwrap();
    stream.write_all(&garbage).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let replies = drain_replies(&mut stream);
    assert!(replies.iter().any(|r| matches!(r, Reply::HelloAck { .. })));
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Reply::Error { code, .. } if *code == ERR_BAD_REQUEST)),
        "post-handshake garbage must earn a typed error: {replies:?}"
    );
    server.shutdown();
}

#[test]
fn stale_hello_versions_get_a_typed_error_and_the_server_keeps_serving() {
    let mut server = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let outcome = client
        .submit(&JobSpec::small_campaign(5, 79), &JobOptions::default())
        .unwrap();
    assert!(matches!(outcome, sctc_server::JobOutcome::Done { .. }));
    // A version-2 client (whose job specs still carry an engine byte) and
    // a version-3 client (which may send the retired stats request) are
    // refused at the handshake, before they can send anything else.
    for version in [2, 3] {
        let mut stream = raw_connect(server.addr());
        let (tag, payload) = Request::Hello {
            magic: MAGIC,
            version,
        }
        .encode();
        stream.write_all(&encode_frame(tag, &payload)).unwrap();
        let replies = drain_replies(&mut stream);
        assert_eq!(
            replies,
            vec![Reply::Error {
                code: ERR_BAD_REQUEST,
                message: "handshake magic/version mismatch".to_owned(),
            }],
            "a version-{version} hello earns exactly one typed error"
        );

        // Other clients are served normally after the refusal.
        let outcome = client
            .submit(
                &JobSpec::small_campaign(5, 80 + u64::from(version)),
                &JobOptions::default(),
            )
            .unwrap();
        assert!(matches!(outcome, sctc_server::JobOutcome::Done { .. }));
    }
    server.shutdown();
}

#[test]
fn retired_stats_request_gets_a_typed_error_and_the_server_keeps_serving() {
    let mut server = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Version 4 retired request tag 0x03 (the stats request): after a
    // valid handshake it earns one typed error and the connection closes.
    let mut stream = raw_connect(server.addr());
    stream.write_all(&hello_frame()).unwrap();
    stream.write_all(&encode_frame(0x03, &[])).unwrap();
    let replies = drain_replies(&mut stream);
    assert!(
        matches!(
            replies[..],
            [
                Reply::HelloAck { version: VERSION },
                Reply::Error {
                    code: ERR_BAD_REQUEST,
                    ..
                }
            ]
        ),
        "a retired request earns exactly one typed error: {replies:?}"
    );

    let outcome = client
        .submit(&JobSpec::small_campaign(5, 84), &JobOptions::default())
        .unwrap();
    assert!(matches!(outcome, sctc_server::JobOutcome::Done { .. }));
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_leaves_the_server_serving() {
    let mut server = spawn(ServerConfig::default()).unwrap();
    // Disconnect at every interesting cut point of a valid exchange.
    let job_frame = {
        let (tag, payload) = Request::Job {
            options: JobOptions::default(),
            spec: JobSpec::small_campaign(5, 77),
        }
        .encode();
        encode_frame(tag, &payload)
    };
    let full: Vec<u8> = [hello_frame(), job_frame].concat();
    for cut in [1, 4, 5, 12, full.len() / 2, full.len() - 1] {
        let mut stream = raw_connect(server.addr());
        stream.write_all(&full[..cut]).unwrap();
        drop(stream); // mid-stream disconnect
    }
    // The server survives all of it and serves the next client normally.
    let mut client = Client::connect(server.addr()).unwrap();
    let outcome = client
        .submit(&JobSpec::small_campaign(5, 78), &JobOptions::default())
        .unwrap();
    assert!(matches!(outcome, sctc_server::JobOutcome::Done { .. }));
    server.shutdown();
}

/// Fuzz the pure decoder: PRNG-mutated valid frames must decode to a
/// value or a typed [`WireError`] — the `#[test]` harness would turn any
/// panic into a failure.
#[test]
fn fuzzed_mutations_of_valid_frames_never_panic_the_decoder() {
    let mut rng = testkit::Rng::new(0xF0_55ED);
    let seeds: Vec<Vec<u8>> = vec![
        {
            let (tag, payload) = Request::Hello {
                magic: MAGIC,
                version: VERSION,
            }
            .encode();
            encode_frame(tag, &payload)
        },
        {
            let (tag, payload) = Request::Job {
                options: JobOptions {
                    deadline_ms: 9,
                    jobs: 2,
                },
                spec: JobSpec::small_campaign(40, 7),
            }
            .encode();
            encode_frame(tag, &payload)
        },
        {
            let (tag, payload) = Request::Job {
                options: JobOptions::default(),
                spec: JobSpec::planted_smc(20, 3),
            }
            .encode();
            encode_frame(tag, &payload)
        },
        {
            let (tag, payload) = Request::Telemetry.encode();
            encode_frame(tag, &payload)
        },
    ];

    let mut decoded = 0u32;
    let mut rejected = 0u32;
    for round in 0..600 {
        let seed = &seeds[(round % seeds.len() as u64) as usize];
        let mut bytes = seed.clone();
        // Mutate: flip bytes, truncate, extend, or splice a length.
        for _ in 0..=rng.below(4) {
            match rng.below(4) {
                0 => {
                    let i = rng.below(bytes.len() as u64) as usize;
                    bytes[i] ^= rng.below(256) as u8;
                }
                1 => {
                    let keep = rng.below(bytes.len() as u64 + 1) as usize;
                    bytes.truncate(keep);
                }
                2 => {
                    bytes.push(rng.below(256) as u8);
                }
                _ => {
                    if bytes.len() >= 4 {
                        let value = (rng.below(u64::from(u32::MAX)) as u32).to_le_bytes();
                        bytes[..4].copy_from_slice(&value);
                    }
                }
            }
            if bytes.is_empty() {
                bytes.push(rng.below(256) as u8);
            }
        }

        // Frame reassembly + request decode over the mutated bytes, fed
        // in randomly-sized chunks. Every outcome must be a value or a
        // typed error.
        let mut buf = FrameBuf::new();
        let mut offset = 0;
        let outcome: Result<(), WireError> = loop {
            match buf.take_frame() {
                Ok(Some((tag, payload))) => match Request::decode(tag, &payload) {
                    Ok(_) => {
                        decoded += 1;
                        break Ok(());
                    }
                    Err(e) => break Err(e),
                },
                Ok(None) => {}
                Err(e) => break Err(e),
            }
            if offset >= bytes.len() {
                break Err(WireError::Truncated);
            }
            let step = 1 + rng.below(7) as usize;
            let end = (offset + step).min(bytes.len());
            buf.push(&bytes[offset..end]);
            offset = end;
        };
        if outcome.is_err() {
            rejected += 1;
        }
    }
    // The corpus exercises both sides of the contract.
    assert!(decoded > 0, "some mutants still decode");
    assert!(rejected > 0, "some mutants are rejected");
}
