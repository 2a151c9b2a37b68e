//! Wire-protocol fuzzing: the frame decoder and message parsers must
//! survive arbitrary garbage — malformed lengths, truncated frames,
//! oversized payloads, corrupted checksums, version skew — with a typed
//! error every time and a panic never. The live-server half then holds
//! the *listener* to the same standard: a session fed garbage dies alone;
//! the next connection is served normally.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use xmldb_core::Database;
use xmldb_server::proto::{
    read_frame, write_frame, FrameError, ProtoError, Request, Response, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use xmldb_server::{Client, ClientError, ErrorCode, QueryParams, Server, ServerConfig};

// --- pure decoder fuzz -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the request parser.
    #[test]
    fn request_decode_never_panics(payload in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Request::decode(&payload);
    }

    /// Arbitrary bytes never panic the response parser.
    #[test]
    fn response_decode_never_panics(payload in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Response::decode(&payload);
    }

    /// Byte soup biased toward plausible tags exercises the per-message
    /// field readers, not just the tag dispatch.
    #[test]
    fn plausible_tag_soup_never_panics(
        tag in prop_oneof![0x00u8..0x10u8, 0x80u8..0x90u8, any::<u8>()],
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }

    /// Every well-formed request round-trips through the codec.
    #[test]
    fn requests_roundtrip(
        doc in "\\PC{0,40}",
        query in "\\PC{0,120}",
        engine in any::<u8>(),
        timeout_ms in any::<u64>(),
        mem_limit in any::<u64>(),
        id in any::<u64>(),
    ) {
        let cases = [
            Request::Hello { version: timeout_ms as u32 },
            Request::Query {
                doc: doc.clone(),
                query: query.clone(),
                engine,
                timeout_ms,
                mem_limit,
            },
            Request::Prepare { doc: doc.clone(), query: query.clone(), engine },
            Request::ExecPrepared { id },
            Request::Load { name: doc.clone(), xml: query.clone() },
            Request::DropDoc { name: doc.clone() },
        ];
        for req in cases {
            let decoded = Request::decode(&req.encode());
            prop_assert_eq!(decoded, Ok(req));
        }
    }

    /// Every truncation of a valid frame is a typed error, never a panic
    /// and never a bogus success.
    #[test]
    fn truncated_frames_are_typed(
        query in "\\PC{0,60}",
        keep_fraction in 0u32..1000u32,
    ) {
        let req = Request::Query {
            doc: "d".into(),
            query,
            engine: 4,
            timeout_ms: 0,
            mem_limit: 0,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let keep = (wire.len() - 1) * keep_fraction as usize / 1000;
        let truncated = &wire[..keep];
        match read_frame(&mut &truncated[..], MAX_FRAME_LEN) {
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
            Err(FrameError::Eof) => prop_assert_eq!(keep, 0, "Eof only at a frame boundary"),
            Err(FrameError::Io(_)) | Err(FrameError::Proto(_)) => {}
        }
    }

    /// A corrupted byte anywhere in the frame is caught: by the length
    /// check, by the CRC, or by the payload parser — silent acceptance of
    /// altered *content* must be impossible.
    #[test]
    fn single_byte_corruption_is_caught(
        flip_at in 0usize..200,
        flip_bits in 1u8..=255u8,
    ) {
        let req = Request::Query {
            doc: "dblp".into(),
            query: "//inproceedings[author = 'X']".into(),
            engine: 4,
            timeout_ms: 1000,
            mem_limit: 1 << 20,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let at = flip_at % wire.len();
        wire[at] ^= flip_bits;
        match read_frame(&mut wire.as_slice(), MAX_FRAME_LEN) {
            // Corrupting the length prefix can still yield a shorter,
            // CRC-valid frame only if the CRC also matched — the CRC of a
            // different byte range virtually never does; a decoded payload
            // must at least not equal the original request bytes blindly.
            Ok(payload) => prop_assert!(Request::decode(&payload) != Ok(req.clone())
                || payload == req.encode()),
            Err(FrameError::Io(_)) | Err(FrameError::Proto(_)) => {}
            Err(FrameError::Eof) => prop_assert!(false, "corruption cannot empty the stream"),
        }
    }

    /// Hostile length prefixes (anything past the cap, up to u32::MAX)
    /// are rejected from the 8-byte header alone — before any allocation.
    #[test]
    fn oversized_lengths_rejected_from_header(extra in 1u32..=u32::MAX - MAX_FRAME_LEN as u32) {
        let len = MAX_FRAME_LEN as u32 + extra;
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&0xDEADBEEFu32.to_le_bytes());
        // No payload behind the header: if the reader tried to allocate or
        // read it, it would error differently (or OOM); it must say Oversized.
        match read_frame(&mut wire.as_slice(), MAX_FRAME_LEN) {
            Err(FrameError::Proto(ProtoError::Oversized { len: l })) => {
                prop_assert_eq!(l, len as u64)
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other.err()),
        }
    }
}

// --- live-server fuzz ------------------------------------------------------

fn tiny_server() -> Server {
    let db = Database::in_memory();
    db.load_document("d", "<a><b>x</b><b>y</b></a>").unwrap();
    Server::start(
        db,
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 8,
            queue_depth: 4,
            queue_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// One sane client call proving the listener still serves new sessions.
fn assert_server_alive(server: &Server) {
    let mut client = Client::connect(server.addr()).expect("listener must accept new sessions");
    client
        .ping()
        .expect("server must answer a well-formed ping");
    let reply = client.query("d", "//b", QueryParams::default()).unwrap();
    assert_eq!(reply.count, 2);
    client.close().unwrap();
}

/// Garbage byte streams (seeded, 64 rounds) kill only their own session:
/// each round the poisoned connection gets a typed answer or a close, and
/// a fresh well-formed session still works.
#[test]
fn listener_survives_garbage_streams() {
    let server = tiny_server();
    let mut rng = StdRng::seed_from_u64(0x5AA2_DB00);
    for round in 0..64u32 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let len = rng.gen_range(1usize..600);
        let mut garbage = vec![0u8; len];
        for b in &mut garbage {
            *b = rng.gen_range(0u32..256) as u8;
        }
        // Half the rounds send raw garbage; half wrap garbage in a valid
        // frame so it passes CRC and reaches the message parser.
        if rng.gen_bool(0.5) {
            let _ = stream.write_all(&garbage);
        } else {
            garbage.truncate(garbage.len().min(200));
            let _ = write_frame(&mut stream, &garbage);
        }
        let _ = stream.flush();
        // The server must answer (typed error / busy / hello-rejection)
        // or close — but never hang the session reader forever.
        match read_frame(&mut stream, MAX_FRAME_LEN) {
            Ok(payload) => {
                let resp = Response::decode(&payload)
                    .unwrap_or_else(|e| panic!("round {round}: undecodable response: {e}"));
                assert!(
                    matches!(resp, Response::Error { .. } | Response::Busy { .. }),
                    "round {round}: garbage must never be acknowledged as success, got {resp:?}"
                );
            }
            Err(FrameError::Eof) | Err(FrameError::Io(_)) => {}
            Err(FrameError::Proto(e)) => panic!("round {round}: server sent garbage back: {e}"),
        }
        drop(stream);
        if round % 8 == 7 {
            assert_server_alive(&server);
        }
    }
    assert_server_alive(&server);
}

/// There is no version negotiation: a Hello announcing anything but
/// this build's [`PROTOCOL_VERSION`] — older, newer, or absurd — is
/// refused with a typed `VersionSkew` error naming the version, and the
/// session closes. The listener keeps serving current-version clients,
/// whose ack echoes the version they sent.
#[test]
fn version_skew_is_typed_and_survivable() {
    let server = tiny_server();
    let hello = |version: u32| {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut stream, &Request::Hello { version }.encode()).unwrap();
        let payload = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
        (stream, Response::decode(&payload).unwrap())
    };
    for wrong in [0, 1, 2, PROTOCOL_VERSION + 1, u32::MAX] {
        let (mut stream, response) = hello(wrong);
        match response {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::VersionSkew, "hello v{wrong}: {message}");
                assert!(
                    message.contains(&wrong.to_string()),
                    "skew message names the version"
                );
            }
            other => panic!("hello v{wrong} answered {other:?}"),
        }
        // After the rejection the session is closed.
        assert!(matches!(
            read_frame(&mut stream, MAX_FRAME_LEN),
            Err(FrameError::Eof) | Err(FrameError::Io(_))
        ));
        assert_server_alive(&server);
    }
    match hello(PROTOCOL_VERSION).1 {
        Response::HelloAck { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("hello v{PROTOCOL_VERSION} answered {other:?}"),
    }
}

/// A non-Hello first frame is a typed protocol error, not a hang.
#[test]
fn first_frame_must_be_hello() {
    let server = tiny_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stream, &Request::Ping.encode()).unwrap();
    let payload = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Error {
            code: ErrorCode::Proto,
            ..
        }
    ));
    assert_server_alive(&server);
}

/// An oversized length prefix poisons only its own session; the typed
/// error names the length and the listener survives.
#[test]
fn oversized_frame_on_the_wire_is_survivable() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    // Speak garbage on a second raw connection while the first stays live.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&(u32::MAX).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&header).unwrap();
    stream.flush().unwrap();
    let payload = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Proto);
            assert!(
                message.contains("exceeds"),
                "unhelpful oversize error: {message}"
            );
        }
        other => panic!("oversized frame answered {other:?}"),
    }
    // The well-behaved session was unaffected.
    client.ping().unwrap();
    client.close().unwrap();
    assert_server_alive(&server);
}

/// Decodable-but-wrong messages after the handshake (bad engine code,
/// unknown prepared id, commit outside a transaction) get typed errors on
/// a session that *stays open*.
#[test]
fn semantic_garbage_keeps_the_session_alive() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    // Unknown engine code.
    match client.query(
        "d",
        "//b",
        QueryParams {
            engine: Some(99),
            ..QueryParams::default()
        },
    ) {
        Err(ClientError::Server(ErrorCode::Proto, m)) => assert!(m.contains("99")),
        other => panic!("unknown engine code answered {other:?}"),
    }
    // Unknown prepared-statement id.
    match client.exec_prepared(123_456) {
        Err(ClientError::Server(ErrorCode::NoSuchPrepared, _)) => {}
        other => panic!("unknown prepared id answered {other:?}"),
    }
    // Transaction-state misuse.
    match client.commit() {
        Err(ClientError::Server(ErrorCode::TxnState, _)) => {}
        other => panic!("commit outside txn answered {other:?}"),
    }
    // The session survived all three and still answers queries.
    let reply = client.query("d", "//b", QueryParams::default()).unwrap();
    assert_eq!(reply.count, 2);
    client.close().unwrap();
}
