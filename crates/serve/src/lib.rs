//! `tp-serve`: the resident proof service.
//!
//! The sweep binaries (`matrix`, `bench`) pay pool spin-up, scenario
//! planning and cache I/O on every invocation. This crate keeps all of
//! that resident: one long-lived daemon owns the persistent worker
//! pool and the content-addressed proof cache, and accepts sweep jobs
//! over a line-oriented TCP protocol, streaming each cell's
//! [`tp_core::wire`] records back the moment the cell completes — in
//! submission order, courtesy of the scheduler's `OrderedResults`.
//!
//! * **Protocol** — [`protocol`]: `SUBMIT` / `STATUS` / `CANCEL` /
//!   `METRICS` / `PING` / `SHUTDOWN`, one request per line, responses
//!   as `.`-terminated blocks.
//! * **Byte-compatibility** — a job's streamed records, with the
//!   `REC ` prefix stripped, are byte-identical to `matrix --worker`
//!   stdout for the same subset; shard merging and the wire parser
//!   work unchanged on service output.
//! * **Cache front** — warm cells are answered from the
//!   [`tp_core::ProofCache`] (validated, never believed) without
//!   re-proving; the `DONE` line reports hit/miss/rejected counts.
//! * **One proof store** — with `--cache`, freshly proved cells are
//!   appended, one fsynced frame each, to the same framed log
//!   `matrix --cache` keeps; it is never rewritten while the daemon
//!   serves, so a crash loses at most the cell in flight.
//! * **Failure model** — a panicking proof task is contained by the
//!   pool at the task boundary and becomes a per-cell `err` record in
//!   that one job's stream; sibling cells complete and the daemon
//!   keeps serving. This leans directly on `tp-sched`'s poison-recovery
//!   contract; [`server`] documents the rest (cancellation, shutdown,
//!   cache locking, crash safety).

pub mod protocol;
pub mod server;

pub use protocol::{parse_request, Request, SubmitSpec};
pub use server::Server;
