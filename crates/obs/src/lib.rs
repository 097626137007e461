//! # rtl-obs — deterministic instrumentation for the ASIM II stack
//!
//! Campaigns at a million-case scale are black boxes without telemetry,
//! but telemetry that perturbs the run (or that differs between two runs
//! of the same campaign) is worse than none. This crate is the seam the
//! rest of the workspace records through, built on two rules:
//!
//! 1. **Zero cost when off.** The [`Recorder`] handle is a cheap
//!    clone-able `Arc` that is a no-op by default: hot paths pay one
//!    branch. Recording never fails a run — sink I/O errors are
//!    swallowed, telemetry is strictly best-effort.
//! 2. **A strict determinism split.** Every event is either a
//!    *deterministic counter* (cases executed, cycles simulated,
//!    comparator invocations per lens, divergences, shrink probes,
//!    corpus entries, bin-cache hits, fleet dispatch under the `fleet/`
//!    source — `cases_dispatched`, `leases_granted`, `records_accepted`,
//!    `corpus_accepted`) whose folded totals are byte-identical for a
//!    given campaign configuration across runs, worker counts,
//!    kill+resume, and controller restarts — or *wall-clock* (span durations,
//!    gauges, marks), flagged non-deterministic and excluded from all
//!    bit-identity comparisons. [`Summary`] renders the two sections
//!    separately so the deterministic one doubles as a correctness gate
//!    (`asim2 metrics summarize --check`).
//!
//! The on-disk format is `asim2-events v1`: one JSON object per line,
//! with a leading `meta` header line carrying the format string. See
//! [`event`] for the exact schema.
//!
//! This crate sits at the bottom of the crate graph with no
//! dependencies, so it also hosts [`json`], the workspace's one JSON
//! codec (offline, no serde): every artifact — campaign state, records,
//! fleet frames, events, profiles, lint reports, trace exports — is
//! written and read through it.
//!
//! ```
//! use rtl_obs::{Recorder, Summary};
//! let (recorder, log) = Recorder::memory();
//! recorder.count("campaign", "cases_executed", 2);
//! recorder.gauge("campaign", "workers", 4);
//! recorder.flush();
//! let mut summary = Summary::new();
//! summary.fold_text(&log.text(), "memory").unwrap();
//! assert!(summary
//!     .deterministic_section()
//!     .contains("campaign/cases_executed 2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod recorder;
pub mod summary;
pub mod trace;

pub use event::{Class, Event, FORMAT};
pub use recorder::{FlightRing, MemoryLog, Recorder, Span};
pub use summary::{Histogram, Summary};
pub use trace::{trace_from_events, trace_from_sources, trace_from_text};
