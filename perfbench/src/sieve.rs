//! `sieve-long`: the paper's Figure 5.1 program (the sieve on the stack
//! machine, 4096-cell RAM) run for many cycles.
//!
//! A round runs eight phases: each raw engine alone over the whole
//! program with trace off, then `interp`+`vm` in [`Lockstep`] for a
//! fixed prefix under each lens and stride. The seed picks the sieve
//! size, so the program (and its length) is an input.

use crate::report::Report;
use crate::stats::{median, secs, Budget};
use crate::Args;
use rtl_core::{
    Comparator, CompareMode, Design, DivergenceKind, Engine, EngineLane, EngineOptions,
    Observation, ProfileHook, Session, SimState, StopReason, Until,
};
use rtl_cosim::{CosimOptions, CosimOutcome, EngineKind, Lockstep};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Sieve sizes drawn by seed: `SIZE_MIN..SIZE_MIN + SIZE_SPAN`.
const SIZE_MIN: u64 = 900;
const SIZE_SPAN: u64 = 100;

/// Set-ups sampled before each round; `setup_s` is the median of all
/// samples in the run.
const SETUPS_PER_ROUND: usize = 3;

/// The raw engines, with the metric each one's rate reports under.
const RAW: [(&str, &str); 3] = [
    ("interp-faithful", "sim.faithful.cycles_per_s"),
    ("interp", "sim.interp.cycles_per_s"),
    ("vm", "sim.vm.cycles_per_s"),
];

/// One lockstep phase: `interp`+`vm` under one lens at one stride, for
/// a fixed prefix of the program.
struct Phase {
    name: &'static str,
    every: u64,
    lens: CompareMode,
    cycles: u64,
}

/// Prefix lengths are sized so each phase takes a similar share of a
/// round on the reference box (2 cores).
const PHASES: [Phase; 5] = [
    Phase {
        name: "s1_trace",
        every: 1,
        lens: CompareMode::Trace,
        cycles: 150_000,
    },
    Phase {
        name: "s16_trace",
        every: 16,
        lens: CompareMode::Trace,
        cycles: 15_000,
    },
    Phase {
        name: "s4096_trace",
        every: 4096,
        lens: CompareMode::Trace,
        cycles: 150_000,
    },
    Phase {
        name: "s1_digest",
        every: 1,
        lens: CompareMode::Digest,
        cycles: 3_000,
    },
    Phase {
        name: "s1_vcd",
        every: 1,
        lens: CompareMode::Vcd,
        cycles: 150_000,
    },
];

/// The generated input: the sieve program's specification and what a
/// correct run prints.
struct Input {
    size: u64,
    source: String,
    expected_output: String,
    cycles: u64,
}

fn input(seed: u64) -> Input {
    let size = SIZE_MIN + seed % SIZE_SPAN;
    let w = rtl_machines::stack::sieve_workload(size as rtl_core::Word);
    Input {
        size,
        source: rtl_machines::stack::rtl::spec_source(&w.program, Some(w.cycles)),
        expected_output: w.expected_output,
        cycles: w.cycles as u64 + 1,
    }
}

fn build<'d>(
    design: &'d Design,
    name: &str,
    options: &EngineOptions,
) -> Result<Box<dyn Engine + 'd>, String> {
    match rtl_cosim::registry().build(name, design, options)? {
        EngineLane::Stepped(engine) => Ok(engine),
        EngineLane::Stream(_) => Err(format!("{name} is not a stepped lane")),
    }
}

fn options(trace: bool, profile: ProfileHook) -> EngineOptions {
    EngineOptions { trace, profile }
}

/// One set-up: design load (parse + elaborate) and every lane build the
/// workload uses.
fn setup(source: &str) -> Result<f64, String> {
    let start = Instant::now();
    let design = Design::from_source(source).map_err(|e| e.to_string())?;
    let mut lanes = Vec::new();
    for (name, _) in RAW {
        lanes.push(build(
            &design,
            name,
            &options(false, ProfileHook::disabled()),
        )?);
    }
    let mut lockstep = Lockstep::new(&design, CosimOptions::default());
    lockstep.add_engine(EngineKind::Interp);
    lockstep.add_engine(EngineKind::Vm);
    black_box((&lanes, &lockstep));
    Ok(secs(start))
}

/// One raw engine over the whole program from its initial state.
struct RawRun {
    secs: f64,
    cycles: u64,
    output: String,
    end: SimState,
}

fn raw_run(engine: &mut Box<dyn Engine + '_>, initial: &SimState) -> RawRun {
    engine.restore(initial);
    let mut session = Session::over(&mut **engine).capture().build();
    let start = Instant::now();
    let run = session.run(Until::Spec);
    let secs = secs(start);
    let output = if run.completed() {
        session.output_text()
    } else {
        format!("stopped early: {}", run.stop)
    };
    drop(session);
    RawRun {
        secs,
        cycles: run.cycles,
        output,
        end: engine.state().clone(),
    }
}

/// One lockstep phase from cycle 0; the outcome is checked by the caller.
fn lockstep_run(
    design: &Design,
    phase: &Phase,
    profile: ProfileHook,
    timed: Option<Box<dyn Comparator>>,
) -> (f64, CosimOutcome, u64) {
    let compare = if timed.is_some() {
        // The cheapest lens keeps the configured set non-empty (an empty
        // set means "all"); the lens under test joins as a decorator.
        vec![CompareMode::Cycles]
    } else {
        vec![phase.lens]
    };
    let mut lockstep = Lockstep::new(
        design,
        CosimOptions {
            compare_every: phase.every,
            compare,
            profile,
            ..CosimOptions::default()
        },
    );
    if let Some(comparator) = timed {
        lockstep.add_comparator(comparator);
    }
    lockstep.add_engine(EngineKind::Interp);
    lockstep.add_engine(EngineKind::Vm);
    let start = Instant::now();
    let outcome = lockstep.run(phase.cycles);
    let secs = secs(start);
    (secs, outcome, lockstep.verified_cycles())
}

fn check_lockstep(report: &mut Report, phase: &Phase, outcome: &CosimOutcome, verified: u64) {
    let ok = matches!(
        outcome,
        CosimOutcome::Agreement { cycles, stop: StopReason::CycleLimit, .. } if *cycles == phase.cycles
    ) && verified == phase.cycles;
    report.check(ok, || {
        format!(
            "lockstep {} verified {verified} of {} cycles: {}",
            phase.name,
            phase.cycles,
            match outcome {
                CosimOutcome::Agreement { stop, .. } => stop.to_string(),
                CosimOutcome::Divergence(d) => d.to_string(),
            }
        )
    });
}

/// Per-phase rates over rounds of all eight phases.
#[derive(Default)]
struct Rounds {
    /// Simulated cycles of every round, and the host seconds they took.
    cycles: u64,
    secs: f64,
    rounds: usize,
    /// Set-up samples, taken before each round.
    setups: Vec<f64>,
    /// Per raw engine, then per lockstep phase: cycles per second.
    raw: [Vec<f64>; 3],
    lockstep: [Vec<f64>; 5],
    /// Traced rounds only: `interp` and `vm` alone with trace text on,
    /// over the stride-1 prefix, in host ns per cycle.
    lanes: [Vec<f64>; 2],
    /// Traced rounds only: the stride-1 trace phase with the profile
    /// hook collecting, in cycles per second.
    profiled: Vec<f64>,
}

/// Rounds of the eight phases until `budget` is spent. A traced run adds
/// each lane alone and the profiled stride-1 phase to every round, so
/// they are compared with phases measured in the same moments (the
/// reference box's speed drifts over seconds); the extra runs stay out
/// of the round's rate.
fn rounds(
    report: &mut Report,
    design: &Design,
    input: &Input,
    budget: &Budget,
    traced: bool,
) -> Result<Rounds, String> {
    let mut engines = Vec::new();
    for (name, _) in RAW {
        engines.push(build(
            design,
            name,
            &options(false, ProfileHook::disabled()),
        )?);
    }
    let initial: Vec<SimState> = engines.iter().map(|e| e.snapshot()).collect();
    let mut out = Rounds::default();
    loop {
        for _ in 0..SETUPS_PER_ROUND {
            out.setups.push(setup(&input.source)?);
        }
        let (mut cycles, mut time) = (0u64, 0.0);
        let mut ends = Vec::new();
        for (i, engine) in engines.iter_mut().enumerate() {
            let run = raw_run(engine, &initial[i]);
            report.check(
                run.cycles == input.cycles && run.output == input.expected_output,
                || {
                    format!(
                        "{} ran {} of {} cycles, output {}",
                        RAW[i].0,
                        run.cycles,
                        input.cycles,
                        if run.output == input.expected_output {
                            "as expected"
                        } else {
                            "differs from the reference"
                        }
                    )
                },
            );
            out.raw[i].push(run.cycles as f64 / run.secs);
            cycles += run.cycles;
            time += run.secs;
            ends.push(run.end);
        }
        report.check(ends.windows(2).all(|w| w[0] == w[1]), || {
            "raw engines ended in different states".into()
        });
        for (i, phase) in PHASES.iter().enumerate() {
            let (secs, outcome, verified) =
                lockstep_run(design, phase, ProfileHook::disabled(), None);
            check_lockstep(report, phase, &outcome, verified);
            out.lockstep[i].push(phase.cycles as f64 / secs);
            cycles += phase.cycles;
            time += secs;
        }
        out.cycles += cycles;
        out.secs += time;
        out.rounds += 1;
        if traced {
            let prefix = PHASES[0].cycles;
            out.lanes[0].push(lane_ns_per_cycle(design, "interp", prefix)?);
            out.lanes[1].push(lane_ns_per_cycle(design, "vm", prefix)?);
            let (secs, outcome, verified) =
                lockstep_run(design, &PHASES[0], ProfileHook::collecting(), None);
            check_lockstep(report, &PHASES[0], &outcome, verified);
            out.profiled.push(prefix as f64 / secs);
        }
        if !budget.running() {
            return Ok(out);
        }
    }
}

/// Runs the workload and fills the report.
pub fn run(args: &Args) -> Result<Report, String> {
    let input = input(args.seed);
    let mut report = Report::default();
    let design = Design::from_source(&input.source).map_err(|e| e.to_string())?;
    report.extra("sieve.size", input.size as f64, "");
    report.extra("sieve.program_cycles", input.cycles as f64, "cycles");

    if !args.trace {
        let rounds = rounds(
            &mut report,
            &design,
            &input,
            &Budget::new(args.seconds),
            false,
        )?;
        report.metric("setup_s", median(&rounds.setups));
        report.metric("cycles_per_s", rounds.cycles as f64 / rounds.secs);
        report.extra("rounds", rounds.rounds as f64, "");
        for (i, (_, metric)) in RAW.iter().enumerate() {
            report.extra(metric, median(&rounds.raw[i]), "1/s");
        }
        for (i, phase) in PHASES.iter().enumerate() {
            let name = format!("lockstep.{}.cycles_per_s", phase.name);
            report.extra(&name, median(&rounds.lockstep[i]), "1/s");
        }
        return Ok(report);
    }
    traced(args, &mut report, &design, &input)?;
    Ok(report)
}

/// A comparator decorator that times every call into the lens it wraps.
struct Timed {
    inner: Box<dyn Comparator>,
    tally: Rc<Cell<(u64, f64)>>,
}

impl Comparator for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        let start = Instant::now();
        let verdict = self.inner.compare(reference, candidate);
        let (calls, total) = self.tally.get();
        self.tally.set((calls + 1, total + secs(start)));
        verdict
    }
}

/// Host nanoseconds per cycle of one engine alone, trace text on (as
/// the lockstep lanes run), over the first `cycles` cycles.
fn lane_ns_per_cycle(design: &Design, name: &str, cycles: u64) -> Result<f64, String> {
    let mut engine = build(design, name, &options(true, ProfileHook::disabled()))?;
    let mut session = Session::over(&mut *engine).build();
    let start = Instant::now();
    let run = session.run(Until::Cycles(cycles));
    let secs = secs(start);
    if run.cycles != cycles {
        return Err(format!("{name} stopped after {} cycles", run.cycles));
    }
    Ok(secs * 1e9 / cycles as f64)
}

/// The traced run: every per-layer figure of this workload, each timed
/// around public calls.
fn traced(args: &Args, report: &mut Report, design: &Design, input: &Input) -> Result<(), String> {
    // Phase rates, lanes alone and the profiled phase, over rounds on
    // most of the budget.
    let rounds = rounds(
        report,
        design,
        input,
        &Budget::new(args.seconds * 0.7),
        true,
    )?;
    report.metric("setup_s", median(&rounds.setups));
    let raw: Vec<f64> = rounds.raw.iter().map(|r| median(r)).collect();
    for (i, (_, metric)) in RAW.iter().enumerate() {
        report.metric(metric, raw[i]);
    }
    report.metric("fig5_1.interp_over_faithful", raw[1] / raw[0]);
    report.metric("fig5_1.vm_over_faithful", raw[2] / raw[0]);
    let interp_ns = median(&rounds.lanes[0]);
    let vm_ns = median(&rounds.lanes[1]);
    report.metric("interp.traced_ns_per_cycle", interp_ns);
    report.metric("vm.traced_ns_per_cycle", vm_ns);
    for (i, phase) in PHASES.iter().enumerate() {
        let rate = median(&rounds.lockstep[i]);
        report.metric(&format!("lockstep.{}.cycles_per_s", phase.name), rate);
        report.metric(
            &format!("lockstep.{}.harness_ns_per_cycle", phase.name),
            1e9 / rate - interp_ns - vm_ns,
        );
    }
    report.metric(
        "prof.overhead_pct",
        (median(&rounds.lockstep[0]) / median(&rounds.profiled) - 1.0) * 100.0,
    );

    // Exact event and access counts of the VM over the stride-1 prefix.
    let prefix = PHASES[0].cycles;
    let hook = ProfileHook::collecting();
    let mut vm = build(design, "vm", &options(true, hook.clone()))?;
    let run = Session::over(&mut *vm).build().run(Until::Cycles(prefix));
    report.check(run.cycles == prefix, || "profiled vm stopped early".into());
    if let Some(stats) = vm.stats() {
        report.metric(
            "engine.accesses_per_cycle",
            stats.total_accesses() as f64 / stats.cycles.max(1) as f64,
        );
    }
    // The lane's tally reaches the hook when the engine drops.
    drop(vm);
    report.metric(
        "vm.events_per_cycle",
        hook.snapshot().total_events() as f64 / prefix as f64,
    );

    // Per-lens comparator cost at stride 1, through a timing decorator.
    for (lens, cycles) in [
        (CompareMode::Trace, PHASES[0].cycles),
        (CompareMode::Vcd, PHASES[4].cycles),
        (CompareMode::Digest, PHASES[3].cycles),
        (CompareMode::Cells, PHASES[3].cycles),
    ] {
        let phase = Phase {
            name: lens.name(),
            every: 1,
            lens,
            cycles,
        };
        let tally = Rc::new(Cell::new((0u64, 0.0f64)));
        let timed = Timed {
            inner: lens.build(),
            tally: Rc::clone(&tally),
        };
        let (_, outcome, verified) = lockstep_run(
            design,
            &phase,
            ProfileHook::disabled(),
            Some(Box::new(timed)),
        );
        check_lockstep(report, &phase, &outcome, verified);
        let (calls, total) = tally.get();
        report.metric(&format!("compare.{}.calls", lens.name()), calls as f64);
        report.metric(
            &format!("compare.{}.ns_per_call", lens.name()),
            total * 1e9 / calls.max(1) as f64,
        );
    }

    // Rewind-checkpoint cost at sieve state: the text checkpoint the
    // harness writes versus the in-memory engine snapshot.
    let mut interp = build(design, "interp", &options(false, ProfileHook::disabled()))?;
    let mut session = Session::over(&mut *interp).build();
    session.run(Until::Cycles(prefix));
    const CALLS: usize = 200;
    let mut bytes = 0;
    let start = Instant::now();
    for _ in 0..CALLS {
        let mut buf = Vec::new();
        session
            .checkpoint(&mut buf)
            .map_err(|e| format!("checkpoint: {e}"))?;
        bytes = black_box(buf).len();
    }
    report.metric("ckpt.us_per_call", secs(start) * 1e6 / CALLS as f64);
    report.metric("ckpt.bytes", bytes as f64);
    let start = Instant::now();
    for _ in 0..CALLS {
        black_box(session.engine().snapshot());
    }
    report.metric("snapshot.us_per_call", secs(start) * 1e6 / CALLS as f64);
    let start = Instant::now();
    for _ in 0..CALLS {
        black_box(rtl_core::design_fingerprint(black_box(design)));
    }
    report.metric(
        "design_fingerprint.us_per_call",
        secs(start) * 1e6 / CALLS as f64,
    );
    Ok(())
}
