//! # irlt-serve — the long-lived optimization service
//!
//! `irlt-batch` answers "optimize this corpus, then exit"; this crate
//! answers "keep an optimizer warm and feed it requests". A
//! [`Server`] runs the batch executor itself — the same [`Admission`]
//! queue and worker loop ([`irlt_driver::run_workers`]), the same
//! warm-started cache ([`irlt_driver::open_cache`]) and the same engine
//! ([`irlt_driver::execute_job`]) — but admits requests as they arrive
//! instead of all at once. It speaks the newline-delimited-JSON
//! [`protocol`] (`irlt-serve/v1`) over a Unix domain socket — or a
//! stdio pair via [`serve_stream`]. Zero new dependencies: transport is
//! `std::os::unix::net`, framing is lines, encoding is
//! [`irlt_obs::Json`].
//!
//! The service contract, each clause pinned by `tests/serve.rs`:
//!
//! * **Served ≡ batched** — a request's deterministic result fields
//!   are bit-identical to `irlt-batch` on the same nest: same `seq`,
//!   same `score` bits, same `explored`/`legal` counts, at any client
//!   concurrency, on a warm or cold cache. Both run the same executor,
//!   and the soak confirms it end to end.
//! * **Bounded admission** — the queue rejects above its high-water
//!   mark with a typed `backpressure` event and a `retry_after_ms`
//!   hint; admitted requests are *never* silently dropped (drain
//!   completes them; kill rejects them explicitly).
//! * **Per-request SLOs** — a deadline is armed at admission (so it
//!   covers queueing) and a request that exhausts it still returns its
//!   best-so-far *legal* candidate as `timed_out`.
//! * **Fault isolation** — poisoned payloads, client disconnects, and
//!   worker panics each degrade to a typed event; the server, its
//!   pool, and other clients are unaffected.
//! * **Warm restarts** — the cache snapshot rotates atomically
//!   (write-temp + rename, generation-capped) while serving, so a
//!   killed server restarts warm from the last rotation.
//!
//! # Examples
//!
//! ```
//! use irlt_serve::{client, Server, ServeConfig};
//!
//! let socket = std::env::temp_dir().join(format!("irlt-doc-{}.sock", std::process::id()));
//! let server = Server::spawn(ServeConfig { workers: 2, ..ServeConfig::default() }, &socket)?;
//! let jobs = irlt_driver::demo_corpus(4);
//! let report = client::run_jobs(&socket, &jobs, &client::ClientOptions::default())?;
//! assert_eq!(report.completed(), 4);
//! client::shutdown(&socket)?;
//! let summary = server.join();
//! assert_eq!(summary.completed, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{run_jobs, ClientError, ClientOptions, ClientReport, ClientResult};
pub use protocol::{Event, GoalSpec, OptimizeRequest, RejectReason, Request, SCHEMA};
pub use queue::{Admission, Gate, Rejection, Ticket};
pub use server::{
    serve_stream, ServeConfig, ServeSummary, Server, ServerHandle, Sink, SnapshotPolicy,
};
