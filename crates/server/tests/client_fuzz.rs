//! Client-side decoder fuzzing: the mirror image of `proto_fuzz.rs`. A
//! hostile or broken *server* — garbage frames, wrong response types,
//! hostile length prefixes, connections cut mid-frame — must always
//! surface as a typed [`ClientError`], never a panic, a hang, or an
//! unbounded allocation in the client.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use xmldb_server::proto::{
    read_frame, write_frame, FrameError, Response, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use xmldb_server::{Client, ClientError, ErrorCode};

// --- pure decoder fuzz (the corpus of proto_fuzz.rs, client-side) ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the response parser the client feeds
    /// every server answer through.
    #[test]
    fn response_decode_never_panics(payload in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Response::decode(&payload);
    }

    /// Byte soup biased toward plausible response tags exercises the
    /// per-message field readers, not just the tag dispatch.
    #[test]
    fn plausible_response_soup_never_panics(
        tag in prop_oneof![0x80u8..0x90u8, any::<u8>()],
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        let _ = Response::decode(&payload);
    }

    /// Every well-formed response round-trips through the codec — the
    /// client never mangles what an honest server says.
    #[test]
    fn responses_roundtrip(
        session_id in any::<u64>(),
        count in any::<u64>(),
        elapsed_us in any::<u64>(),
        xml in "\\PC{0,200}",
        message in "\\PC{0,80}",
        active in any::<u32>(),
        queued in any::<u32>(),
        code_raw in 1u16..=16u16,
    ) {
        let cases = [
            Response::HelloAck { session_id, version: active },
            Response::Pong,
            Response::Items { count, elapsed_us, xml: xml.clone() },
            Response::Done { info: message.clone() },
            Response::Prepared { id: count },
            Response::Busy { active, queued, message: message.clone() },
            Response::Error {
                code: ErrorCode::from_wire(code_raw),
                message: message.clone(),
            },
        ];
        for resp in cases {
            let decoded = Response::decode(&resp.encode());
            prop_assert_eq!(decoded, Ok(resp));
        }
    }

    /// Every truncation of a valid response frame is a typed error on the
    /// client's read path, never a panic and never a bogus success.
    #[test]
    fn truncated_response_frames_are_typed(
        xml in "\\PC{0,60}",
        keep_fraction in 0u32..1000u32,
    ) {
        let resp = Response::Items { count: 3, elapsed_us: 17, xml };
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let keep = (wire.len() - 1) * keep_fraction as usize / 1000;
        let truncated = &wire[..keep];
        match read_frame(&mut &truncated[..], MAX_FRAME_LEN) {
            Ok(_) => prop_assert!(false, "truncated response decoded"),
            Err(FrameError::Eof) => prop_assert_eq!(keep, 0, "Eof only at a frame boundary"),
            Err(FrameError::Io(_)) | Err(FrameError::Proto(_)) => {}
        }
    }
}

// --- live malicious-server fuzz --------------------------------------------

/// A "server" that runs `script` against exactly one accepted connection
/// and hangs up. The closure gets the raw socket after accept.
fn evil_server(script: impl FnOnce(TcpStream) + Send + 'static) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((conn, _)) = listener.accept() {
            conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
            script(conn);
        }
    });
    addr
}

/// Reads and discards the client's hello frame so the script can answer.
fn swallow_hello(conn: &mut TcpStream) {
    let _ = read_frame(conn, MAX_FRAME_LEN);
}

/// Answers the handshake honestly so the post-handshake calls can be
/// attacked.
fn ack_hello(conn: &mut TcpStream) {
    swallow_hello(conn);
    let ack = Response::HelloAck {
        session_id: 7,
        version: PROTOCOL_VERSION,
    };
    let _ = write_frame(conn, &ack.encode());
}

/// Garbage handshake answers (seeded, 64 rounds): `Client::connect` must
/// return a typed error every round — no panic, no hang.
#[test]
fn garbage_handshake_answers_are_typed() {
    let mut rng = StdRng::seed_from_u64(0x5AA2_DB09);
    for round in 0..64u32 {
        let len = rng.gen_range(0usize..400);
        let mut garbage = vec![0u8; len];
        for b in &mut garbage {
            *b = rng.gen_range(0u32..256) as u8;
        }
        let framed = rng.gen_bool(0.5);
        let addr = evil_server(move |mut conn| {
            swallow_hello(&mut conn);
            if framed {
                let mut g = garbage;
                g.truncate(g.len().min(200));
                let _ = write_frame(&mut conn, &g);
            } else {
                let _ = conn.write_all(&garbage);
            }
            let _ = conn.flush();
        });
        match Client::connect(addr) {
            Ok(_) => panic!("round {round}: garbage handshake produced a live client"),
            Err(
                ClientError::Io(_)
                | ClientError::Proto(_)
                | ClientError::Unexpected(_)
                | ClientError::Server(..)
                | ClientError::Busy(..),
            ) => {}
            Err(other) => panic!("round {round}: unexpected error class: {other}"),
        }
    }
}

/// A hostile length prefix from the server is rejected from the 8-byte
/// header alone — the client must not allocate a giant buffer on the
/// server's say-so.
#[test]
fn giant_length_header_does_not_allocate() {
    let addr = evil_server(|mut conn| {
        ack_hello(&mut conn);
        swallow_hello(&mut conn); // actually the ping request
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let _ = conn.write_all(&header);
        let _ = conn.flush();
        // Send nothing else: if the client tried to read (or allocate)
        // 4 GiB of body, it would hang here or die; a typed Proto error
        // from the header alone is the only correct outcome.
        std::thread::sleep(Duration::from_millis(200));
    });
    let mut client = Client::connect(addr).unwrap();
    match client.ping() {
        Err(ClientError::Proto(m)) => {
            assert!(m.contains("exceeds"), "unhelpful oversize error: {m}")
        }
        other => panic!("giant length header answered {other:?}"),
    }
}

/// The right-shaped frame with the wrong response type inside (protocol
/// desync) is a typed `Unexpected`, not a misinterpted success.
#[test]
fn wrong_response_type_is_typed() {
    let addr = evil_server(|mut conn| {
        ack_hello(&mut conn);
        swallow_hello(&mut conn); // the query request
                                  // Answer a query with Pong.
        let _ = write_frame(&mut conn, &Response::Pong.encode());
        let _ = conn.flush();
    });
    let mut client = Client::connect(addr).unwrap();
    match client.query("d", "//b", Default::default()) {
        Err(ClientError::Unexpected(_)) => {}
        other => panic!("wrong response type answered {other:?}"),
    }
}

/// A connection cut mid-frame (half a response then close) is a typed
/// Io error, never a hang or a partial decode.
#[test]
fn mid_frame_disconnect_is_typed() {
    let addr = evil_server(|mut conn| {
        ack_hello(&mut conn);
        swallow_hello(&mut conn); // the ping request
        let mut wire = Vec::new();
        write_frame(&mut wire, &Response::Pong.encode()).unwrap();
        let half = wire.len() / 2;
        let _ = conn.write_all(&wire[..half]);
        let _ = conn.flush();
        // Hang up mid-frame.
    });
    let mut client = Client::connect(addr).unwrap();
    match client.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("mid-frame disconnect answered {other:?}"),
    }
}

/// A server that accepts and says nothing trips the client's read
/// timeout (when one is set) instead of hanging forever.
#[test]
fn silent_server_hits_read_timeout() {
    let addr = evil_server(|mut conn| {
        ack_hello(&mut conn);
        // Read the ping but never answer.
        swallow_hello(&mut conn);
        std::thread::sleep(Duration::from_secs(5));
    });
    let mut client = Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let started = std::time::Instant::now();
    match client.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("silent server answered {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "read timeout did not bound the wait"
    );
}

/// CRC-corrupted response frames (seeded, every byte position class) are
/// typed Proto errors — altered content is never silently accepted.
#[test]
fn corrupted_response_frames_are_rejected() {
    let mut rng = StdRng::seed_from_u64(0x5AA2_DB0A);
    for round in 0..32u32 {
        let flip_bits = rng.gen_range(1u32..256) as u8;
        let frac = rng.gen_range(0u32..1000);
        let addr = evil_server(move |mut conn| {
            ack_hello(&mut conn);
            swallow_hello(&mut conn); // the ping request
            let resp = Response::Items {
                count: 2,
                elapsed_us: 40,
                xml: "<b>x</b><b>y</b>".into(),
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, &resp.encode()).unwrap();
            let at = (wire.len() - 1) * frac as usize / 1000;
            wire[at] ^= flip_bits;
            let _ = conn.write_all(&wire);
            let _ = conn.flush();
        });
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match client.ping() {
            // Corruption in the length prefix can also surface as a
            // short/overlong read (Io); both are typed rejections.
            Err(ClientError::Proto(_) | ClientError::Io(_) | ClientError::Unexpected(_)) => {}
            Ok(()) => panic!("round {round}: corrupted frame accepted as a pong"),
            Err(other) => panic!("round {round}: unexpected error class: {other}"),
        }
    }
}
