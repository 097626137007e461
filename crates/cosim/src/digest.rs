//! Digest streams: comparing lanes across machines without shipping
//! traces.
//!
//! A distributed campaign shards its case range over machines that share
//! no file system. To let one shard cross-check another's reference lane,
//! it does not need the lane's trace or memory image — only the lane's
//! [`Observation::fingerprint`] at every comparison interval: 8 bytes per
//! interval, however large the design, and (by the fingerprint contract)
//! equal iff every shipped value lens would agree.
//!
//! * [`DigestLog`] — the stream as a value: scenario name, design
//!   fingerprint, comparison stride, and one `(cycle, digest)` entry per
//!   interval, with a versioned text serialization
//!   (`asim2 cosim --export-digests FILE`).
//! * [`DigestRecorder`] — a [`Comparator`] that never diverges; it taps
//!   the reference lane's observation at each interval and records its
//!   fingerprint into a shared log.
//! * [`DigestLane`] — the other machine's lane, replayed from its log: a
//!   [`Comparator`] that checks the *local* reference lane's fingerprint
//!   against the recorded digest at the same cycle
//!   (`asim2 cosim --check-digests FILE`). A mismatch is a
//!   [`DivergenceKind::Digest`].
//!
//! Caveats (also see [`rtl_core::observe::Digest`]): digests fold in the
//! observation *mask*, so the exporting and checking reference lanes must
//! observe the same component set — export and check with the same lane
//! list, or at least the same reference engine. Strides must match too
//! (validated on load). A log exported from a run that *diverged* carries
//! the rewind-bisection's off-stride tail entries; only logs from agreed
//! runs are meaningful to check against. And at coarse strides a digest
//! mismatch is pinned to the interval boundary, not bisected to the exact
//! cycle — the recorded stream has nothing between intervals to bisect
//! against.

use rtl_core::observe::{Comparator, Observation};
use rtl_core::DivergenceKind;
use std::cell::RefCell;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::rc::Rc;

/// The digest stream format line; bump on breaking changes, including a
/// change to the [`Observation::fingerprint`] values it carries. v2
/// folds memory cells word by word; v1 logs hold the older, byte-wise
/// digests and cannot be checked against.
pub const FORMAT: &str = "asim2-digests v2";

/// A recorded stream of per-interval reference-lane digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestLog {
    /// The scenario the stream was recorded over (informational).
    pub scenario: String,
    /// The design's shape fingerprint
    /// ([`design_fingerprint`](rtl_core::design_fingerprint)) — a check
    /// refuses a log recorded over a different design.
    pub design: u64,
    /// The comparison stride the stream was recorded at.
    pub every: u64,
    /// `(cycle, digest)` per interval, cycles strictly increasing.
    pub entries: Vec<(u64, u64)>,
}

impl DigestLog {
    /// An empty log for a scenario/design/stride triple.
    pub fn new(scenario: impl Into<String>, design: u64, every: u64) -> Self {
        DigestLog {
            scenario: scenario.into(),
            design,
            every: every.max(1),
            entries: Vec::new(),
        }
    }

    /// Appends one interval digest; out-of-order cycles (a bisection
    /// replaying below the last recorded interval) are ignored.
    pub fn record(&mut self, cycle: u64, digest: u64) {
        if self.entries.last().is_none_or(|&(last, _)| cycle > last) {
            self.entries.push((cycle, digest));
        }
    }

    /// The digest recorded at exactly `cycle`, if any.
    pub fn digest_at(&self, cycle: u64) -> Option<u64> {
        self.entries
            .binary_search_by_key(&cycle, |&(c, _)| c)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Serializes the stream.
    ///
    /// # Errors
    ///
    /// I/O failure of the writer.
    pub fn write(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{FORMAT}")?;
        writeln!(out, "scenario {}", self.scenario)?;
        writeln!(out, "design {:016x}", self.design)?;
        writeln!(out, "every {}", self.every)?;
        for (cycle, digest) in &self.entries {
            writeln!(out, "{cycle} {digest:016x}")?;
        }
        Ok(())
    }

    /// [`write`](DigestLog::write) to a file, atomically (temp sibling +
    /// rename).
    ///
    /// # Errors
    ///
    /// File creation, write, or rename failure.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut doc = Vec::new();
        self.write(&mut doc)?;
        crate::write_atomic(path.as_ref(), &doc)
    }

    /// Parses a serialized stream.
    ///
    /// # Errors
    ///
    /// A message naming the malformed line.
    pub fn parse(input: &mut dyn BufRead) -> io::Result<DigestLog> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let next = |input: &mut dyn BufRead, what: &str| -> io::Result<String> {
            rtl_core::session::read_doc_line(input, what)
        };
        let magic = next(input, "magic")?;
        if magic == "asim2-digests v1" {
            return Err(bad(format!(
                "asim2-digests v1 stream: its digests predate {FORMAT}; \
                 re-export it with this build"
            )));
        }
        if magic != FORMAT {
            return Err(bad(format!("not an {FORMAT} stream")));
        }
        let scenario = next(input, "scenario")?
            .strip_prefix("scenario ")
            .map(str::to_string)
            .ok_or_else(|| bad("bad scenario line".into()))?;
        let design = next(input, "design")?
            .strip_prefix("design ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| bad("bad design line".into()))?;
        let every = next(input, "every")?
            .strip_prefix("every ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| bad("bad every line".into()))?;
        let mut log = DigestLog::new(scenario, design, every);
        let mut line = String::new();
        loop {
            line.clear();
            if input.read_line(&mut line)? == 0 {
                return Ok(log);
            }
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            let (cycle, digest) = text
                .split_once(' ')
                .and_then(|(c, d)| Some((c.parse().ok()?, u64::from_str_radix(d, 16).ok()?)))
                .ok_or_else(|| bad(format!("bad digest line {text:?}")))?;
            if log.entries.last().is_some_and(|&(last, _)| cycle <= last) {
                return Err(bad(format!("digest cycles not increasing at {cycle}")));
            }
            log.entries.push((cycle, digest));
        }
    }

    /// [`parse`](DigestLog::parse) from a file path.
    ///
    /// # Errors
    ///
    /// See [`DigestLog::parse`]; file-open failures too.
    pub fn load(path: impl AsRef<Path>) -> io::Result<DigestLog> {
        let mut file = io::BufReader::new(std::fs::File::open(path)?);
        Self::parse(&mut file)
    }
}

/// A [`Comparator`] that records the reference lane's observation
/// fingerprint at every comparison interval into a shared [`DigestLog`]
/// — and never reports a divergence itself. Append it last so the log
/// only grows when the configured lenses agreed up to it.
pub struct DigestRecorder {
    log: Rc<RefCell<DigestLog>>,
}

impl DigestRecorder {
    /// A recorder appending into `log`.
    pub fn new(log: Rc<RefCell<DigestLog>>) -> Self {
        DigestRecorder { log }
    }
}

impl Comparator for DigestRecorder {
    fn name(&self) -> &str {
        "digest-record"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        _candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        // Called once per candidate lane at the same cycle; record()
        // drops the repeats (and any bisection replays below the tip).
        let cycle = u64::try_from(reference.cycle()).unwrap_or(0);
        self.log.borrow_mut().record(cycle, reference.fingerprint());
        None
    }
}

/// A remote lane replayed from its recorded digest stream: a
/// [`Comparator`] that checks the local reference lane's fingerprint
/// against the log's digest at the same cycle. Cycles the log has no
/// entry for (between intervals) pass unchecked.
pub struct DigestLane {
    log: DigestLog,
}

impl DigestLane {
    /// A lane over a recorded log.
    pub fn new(log: DigestLog) -> Self {
        DigestLane { log }
    }

    /// The wrapped log.
    pub fn log(&self) -> &DigestLog {
        &self.log
    }
}

impl Comparator for DigestLane {
    fn name(&self) -> &str {
        "digest-lane"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        _candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        let cycle = u64::try_from(reference.cycle()).unwrap_or(0);
        let recorded = self.log.digest_at(cycle)?;
        (recorded != reference.fingerprint()).then_some(DivergenceKind::Digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_round_trips_through_text() {
        let mut log = DigestLog::new("classic/counter", 0xabcd, 16);
        log.record(16, 1);
        log.record(32, 0xffff_ffff_ffff_ffff);
        log.record(32, 9); // repeat at the tip: dropped
        log.record(20, 9); // below the tip: dropped
        let mut doc = Vec::new();
        log.write(&mut doc).unwrap();
        let back = DigestLog::parse(&mut &doc[..]).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.digest_at(32), Some(u64::MAX));
        assert_eq!(back.digest_at(17), None);
    }

    #[test]
    fn export_then_check_round_trips_and_catches_a_faulty_remote() {
        use crate::lockstep::{CosimOptions, CosimOutcome};
        use crate::stream::run_scenario_names;
        use rtl_core::DivergenceKind;

        let path = std::env::temp_dir().join(format!("asim2-digest-{}.log", std::process::id()));
        let scenario = rtl_machines::scenarios::by_name("classic/counter")
            .unwrap()
            .with_cycles(64);
        let names: Vec<String> = vec!["interp".into(), "vm".into()];
        let mut registry = crate::engines::default_registry();
        registry.register(Box::new(crate::fault::FaultyVmFactory::from_cycle(40)));

        // Machine A: run the healthy pair, exporting digests.
        let export = CosimOptions {
            export_digests: Some(path.clone()),
            ..CosimOptions::default()
        };
        assert!(run_scenario_names(&registry, &names, &scenario, &export)
            .unwrap()
            .agreed());
        let log = DigestLog::load(&path).unwrap();
        assert_eq!(log.entries.len(), 64, "one digest per interval");

        // Machine B, healthy: replaying A's digests as an extra lane
        // agrees cycle for cycle.
        let check = CosimOptions {
            check_digests: Some(path.clone()),
            ..CosimOptions::default()
        };
        assert!(run_scenario_names(&registry, &names, &scenario, &check)
            .unwrap()
            .agreed());

        // Machine B, corrupted: the digest stream pins the fault to the
        // same first divergent cycle the full-value lenses would.
        let faulty: Vec<String> = vec!["interp".into(), "vm-fault".into()];
        let outcome = run_scenario_names(&registry, &faulty, &scenario, &check).unwrap();
        let CosimOutcome::Divergence(report) = outcome else {
            panic!("the faulty remote must diverge, got {outcome:?}");
        };
        assert_eq!(report.cycle, 40, "{report}");
        // The local trace lens fires first (comparators run in order);
        // with only the digest lens configured, the digest itself fires.
        let digest_only = CosimOptions {
            compare: vec![rtl_core::observe::CompareMode::Digest],
            check_digests: Some(path.clone()),
            ..CosimOptions::default()
        };
        let outcome = run_scenario_names(&registry, &faulty, &scenario, &digest_only).unwrap();
        let CosimOutcome::Divergence(report) = outcome else {
            panic!("digest-only lens must diverge");
        };
        assert_eq!(report.cycle, 40);
        assert_eq!(report.kind, DivergenceKind::Digest);

        // A mismatched stride is refused up front, not silently unchecked.
        let wrong_stride = CosimOptions {
            compare_every: 2,
            check_digests: Some(path.clone()),
            ..CosimOptions::default()
        };
        let err = run_scenario_names(&registry, &names, &scenario, &wrong_stride).unwrap_err();
        assert!(err.to_string().contains("stride"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        for bad in [
            "nope\n".to_string(),
            format!("{FORMAT}\nscenario x\ndesign zz\nevery 1\n"),
            format!("{FORMAT}\nscenario x\ndesign 00ff\nevery 1\n5 10\n3 10\n"),
            format!("{FORMAT}\nscenario x\ndesign 00ff\nevery 1\nfive ten\n"),
        ] {
            assert!(
                DigestLog::parse(&mut bad.as_bytes()).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn v1_streams_are_refused_by_name() {
        let v1 = "asim2-digests v1\nscenario x\ndesign 00ff\nevery 1\n5 10\n";
        let err = DigestLog::parse(&mut v1.as_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("asim2-digests v1"), "{message}");
        assert!(message.contains("asim2-digests v2"), "{message}");
    }
}
