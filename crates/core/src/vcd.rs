//! Value Change Dump (VCD) waveform export.
//!
//! "This extra output is invaluable when the designer desires to view the
//! internal states of a microprocessor" (§1.4). The thesis printed trace
//! lines; four decades later the lingua franca for viewing internal state
//! is IEEE 1364 VCD, readable by GTKWave and every other waveform viewer.
//!
//! [`VcdSink`] is a [`TraceSink`]: attach it to a
//! [`Session`](crate::session) (alone, or teed with a text sink)
//! and it samples every component's output at each cycle edge —
//! combinational values change during their cycle, memory latches at the
//! edge, exactly like registers in any RTL waveform. [`dump`] is the
//! one-call convenience wrapper.

use crate::design::Design;
use crate::engine::Engine;
use crate::error::SimError;
use crate::session::{Session, Until};
use crate::sink::TraceSink;
use crate::state::SimState;
use crate::word::Word;
use std::io::{self, Write};

/// Options for the dump.
#[derive(Debug, Clone, Default)]
pub struct VcdOptions {
    /// Limit the dump to these component names (empty = all components).
    pub signals: Vec<String>,
}

/// A [`TraceSink`] that records a VCD waveform, one sample per cycle.
/// The design's own trace/output text is discarded — tee with a text sink
/// to keep both. The header is written at the first cycle edge; the
/// closing timestamp comes from [`finish`](VcdSink::finish) (or, when
/// driving through [`dump`], automatically).
#[derive(Debug)]
pub struct VcdSink<W: Write> {
    out: W,
    options: VcdOptions,
    run: Option<Run>,
}

#[derive(Debug)]
struct Run {
    ids: Vec<crate::CompId>,
    previous: Vec<Option<Word>>,
    cycles: u64,
}

impl<W: Write> VcdSink<W> {
    /// A sink writing the VCD document to `out`.
    pub fn new(out: W, options: VcdOptions) -> Self {
        VcdSink {
            out,
            options,
            run: None,
        }
    }

    /// Cycles sampled so far.
    pub fn cycles(&self) -> u64 {
        self.run.as_ref().map_or(0, |r| r.cycles)
    }

    /// Writes the closing timestamp and returns the writer.
    ///
    /// # Errors
    ///
    /// I/O failure of the writer.
    pub fn finish(mut self) -> io::Result<W> {
        writeln!(self.out, "#{}", self.cycles())?;
        Ok(self.out)
    }

    /// Writes the document header for `design` now, if it has not been
    /// written yet. Called automatically at the first cycle edge; call it
    /// up front to keep a zero-cycle document well-formed (as [`dump`]
    /// does).
    ///
    /// # Errors
    ///
    /// I/O failure of the writer.
    pub fn ensure_header(&mut self, design: &Design) -> io::Result<()> {
        if self.run.is_some() {
            return Ok(());
        }
        let ids: Vec<crate::CompId> = design
            .iter()
            .filter(|(_, c)| {
                self.options.signals.is_empty()
                    || self.options.signals.iter().any(|s| c.name == s.as_str())
            })
            .map(|(id, _)| id)
            .collect();
        header(design, &ids, design.widths(), &mut self.out)?;
        self.run = Some(Run {
            previous: vec![None; ids.len()],
            ids,
            cycles: 0,
        });
        Ok(())
    }
}

impl<W: Write> TraceSink for VcdSink<W> {
    fn write_bytes(&mut self, _bytes: &[u8]) -> io::Result<()> {
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn end_cycle(&mut self, design: &Design, state: &SimState) -> io::Result<()> {
        self.ensure_header(design)?;
        let run = self.run.as_mut().expect("initialized above");
        let widths = design.widths();
        let mut stamped = false;
        for (slot, &id) in run.ids.iter().enumerate() {
            let value = state.output(id);
            if run.previous[slot] != Some(value) {
                if !stamped {
                    writeln!(self.out, "#{}", run.cycles)?;
                    stamped = true;
                }
                change(&mut self.out, value, widths[id.index()], slot)?;
                run.previous[slot] = Some(value);
            }
        }
        run.cycles += 1;
        Ok(())
    }
}

/// Runs `engine` for `cycles` cycles and returns the complete VCD
/// document. The design's trace/output text is discarded; build a
/// [`Session`] with a teed [`VcdSink`] to keep it.
///
/// # Errors
///
/// Simulation errors abort the dump; I/O errors surface as
/// [`SimError::Io`].
pub fn dump<'d>(
    engine: impl Engine + 'd,
    cycles: u64,
    options: &VcdOptions,
) -> Result<Vec<u8>, SimError> {
    let mut doc = Vec::new();
    {
        let mut sink = VcdSink::new(&mut doc, options.clone());
        // Header up front, so even a zero-cycle document is well-formed.
        sink.ensure_header(engine.design())?;
        let mut session = Session::over(engine).sink(sink).build();
        let outcome = session.run(Until::Cycles(cycles));
        if let Some(e) = outcome.stop.into_error() {
            return Err(e);
        }
    }
    writeln!(doc, "#{cycles}").map_err(SimError::from)?;
    Ok(doc)
}

fn header(
    design: &Design,
    ids: &[crate::CompId],
    widths: &[u8],
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(out, "$version asim2 (ASIM II reproduction) $end")?;
    writeln!(out, "$comment {} $end", design.title().replace('#', ""))?;
    writeln!(out, "$timescale 1 ns $end")?;
    writeln!(out, "$scope module top $end")?;
    for (slot, &id) in ids.iter().enumerate() {
        writeln!(
            out,
            "$var wire {} {} {} $end",
            widths[id.index()],
            code(slot),
            design.name(id)
        )?;
    }
    writeln!(out, "$upscope $end")?;
    writeln!(out, "$enddefinitions $end")?;
    Ok(())
}

/// The bit pattern a VCD change line records for `value` at `width`:
/// two's-complement truncation to the declared width, like the land()
/// value model. Shared with the [`VcdDiff`](crate::observe::VcdDiff)
/// comparator so "equal waveforms" means exactly "equal VCD documents".
pub fn sample_bits(value: Word, width: u8) -> u64 {
    (value as u64) & (u64::MAX >> (64 - u32::from(width).max(1)))
}

fn change(out: &mut dyn Write, value: Word, width: u8, slot: usize) -> io::Result<()> {
    let bits = sample_bits(value, width);
    writeln!(
        out,
        "b{:0width$b} {}",
        bits,
        code(slot),
        width = width as usize
    )
}

/// VCD identifier codes: printable ASCII 33..=126, extended to two chars
/// beyond 94 signals.
fn code(slot: usize) -> String {
    const BASE: usize = 94;
    let mut s = String::new();
    let mut n = slot;
    loop {
        s.push((b'!' + (n % BASE) as u8) as char);
        n /= BASE;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // A minimal engine for testing lives in rtl-interp; here we exercise
    // the pure pieces and leave end-to-end dumping to the workspace tests.

    #[test]
    fn codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for slot in 0..500 {
            let c = code(slot);
            assert!(c.bytes().all(|b| (33..=126).contains(&b)), "{c:?}");
            assert!(seen.insert(c.clone()), "duplicate {c:?} at {slot}");
        }
        assert_eq!(code(0), "!");
        assert_eq!(code(93), "~");
        assert_eq!(code(94), "!!");
    }

    #[test]
    fn change_lines_mask_to_width() {
        let mut buf = Vec::new();
        change(&mut buf, -1, 4, 0).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "b1111 !\n");
        let mut buf = Vec::new();
        change(&mut buf, 5, 4, 1).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "b0101 \"\n");
    }

    #[test]
    fn zero_cycle_documents_are_well_formed() {
        let design =
            crate::Design::from_source("# c\ncount next .\nM count 0 next 1 1\nA next 4 count 1 .")
                .unwrap();
        let o = VcdOptions::default();
        assert!(o.signals.is_empty());
        let mut sink = VcdSink::new(Vec::new(), o);
        sink.ensure_header(&design).unwrap();
        sink.ensure_header(&design).unwrap();
        assert_eq!(sink.cycles(), 0);
        let doc = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(
            doc.matches("$enddefinitions $end").count(),
            1,
            "header written exactly once: {doc}"
        );
        assert!(doc.ends_with("#0\n"), "{doc}");
    }
}
