//! # psdacc-serve
//!
//! The workspace's cross-process evaluation service: a std-only TCP
//! daemon exposing the batch-evaluation engine over a newline-delimited
//! JSON protocol.
//!
//! The paper's `tau_pp`/`tau_eval` economics want a **service**, not a
//! one-shot CLI: precision decisions get re-queried continuously (dynamic
//! precision scaling), and every query after the first should cost
//! `tau_eval`. The daemon holds its engine — and, when started with
//! `--store`, a [`psdacc_store::PersistentCache`] — for its whole
//! lifetime, so amortization spans connections *and restarts*:
//!
//! ```text
//! psdacc-serve daemon --addr 127.0.0.1:7341 --store /var/cache/psdacc &
//! psdacc-serve daemon --addr 127.0.0.1:7342 --store /var/cache/psdacc &
//! psdacc-sched submit --daemons 127.0.0.1:7341,127.0.0.1:7342 batch.spec
//! ```
//!
//! Batches reach daemons through the `psdacc-sched` coordinator, which
//! streams units over one connection per daemon (per-daemon in-flight
//! windows, work stealing, failure re-dispatch) and merges the results
//! into output identical to a local `psdacc-engine run` of the same spec
//! (timing fields aside). See [`protocol`] for the wire format, [`server`]
//! for connection semantics (including `ServerConfig` limits and chaos
//! fault-injection), [`client`] for connection and control helpers,
//! [`latency`] for the per-verb histograms in `stats`.

pub mod client;
pub mod error;
pub mod latency;
pub mod protocol;
pub mod server;

pub use client::{
    connect, connect_with_timeout, request_control, wait_all_ready, wait_ready, CONNECT_TIMEOUT,
};
pub use error::ServeError;
pub use protocol::{
    define_request_line, evaluate_units_line, job_request_line, parse_define_ack, parse_request,
    parse_trace_reply, result_line, trace_request_line, Request, ScenarioDefinition, TraceContext,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerState, PROTOCOL_REVISION};
