#![warn(missing_docs)]

//! saardb over the network.
//!
//! The course paper's system was an embedded library driven by a testbed;
//! this crate gives it the one piece every real DBMS course skips for
//! time: a server. The modules:
//!
//! * [`proto`] — the wire protocol: length-prefixed, CRC-framed binary
//!   messages (the same `[len][crc32][payload]` discipline the WAL uses
//!   on disk, reused on the wire) with a versioned hello handshake and
//!   typed error codes,
//! * [`server`] — the daemon: admission control (hard session cap +
//!   bounded, deadline-ed wait queue + typed `Busy` rejection — never
//!   accept-and-stall), thread-per-session serving with session-scoped
//!   transactions, per-session prepared-statement caches, and per-request
//!   deadline/memory budgets wired into the storage governor,
//! * [`client`] — the blocking client used by `saardb shell --connect`
//!   and the benchmark load generator, plus [`RetryingClient`]: the same
//!   API behind a [`RetryPolicy`] that absorbs admission rejections,
//!   deadlock victims and dead connections — without ever silently
//!   replaying a non-idempotent statement whose fate is unknown,
//! * [`admin`] — the observability plane: a dependency-free HTTP/1.1
//!   listener on its own socket serving `/metrics` (Prometheus text),
//!   `/stats` (JSON), `/flightrec`, `/healthz` and `/readyz`,
//! * [`monitor`] — `saardb top`: a terminal monitor that polls `/stats`
//!   and renders live rates, latency quantiles and session phases.
//!
//! The `saardb` CLI binary also lives here (it needs the client and the
//! server; the engine crates must not depend on either).

pub mod admin;
pub mod client;
pub mod monitor;
pub mod proto;
pub mod server;

pub use admin::AdminServer;
pub use client::{
    Client, ClientError, ClientResult, QueryParams, QueryReply, RetryPolicy, RetryingClient,
};
pub use proto::{engine_from_code, engine_to_code, ErrorCode, Request, Response, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
