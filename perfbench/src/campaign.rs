//! `campaign-agree` and `campaign-diverge`: `rtl_campaign::run` with the
//! shipped configuration defaults, one worker and a recorder attached.
//!
//! The end-to-end run repeats whole campaigns in fresh directories until
//! the budget is spent. The traced run replays the per-case pipeline
//! stage by stage through each layer's public call, and times real
//! campaigns with the recorder on and off.

use crate::report::Report;
use crate::stats::{flush_writes, mean, median, quantile, secs, Budget};
use crate::Args;
use rtl_campaign::{
    CampaignConfig, CampaignDir, CampaignReport, CaseRecord, CaseStatus, LaneAccess, Progress,
    RunOptions,
};
use rtl_core::{Design, EngineLane, EngineOptions, EngineRegistry, Recorder, StopReason};
use rtl_cosim::{CosimOutcome, Lockstep};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Which campaign workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `interp,vm`: every case agrees.
    Agree,
    /// `interp,vm-fault`: every case diverges, is shrunk and archived.
    Diverge,
}

/// Set-ups sampled before each repetition; `setup_s` is the median of
/// all samples in the run.
const SETUPS_PER_REP: usize = 3;

impl Kind {
    fn engines(self) -> Vec<String> {
        let names: &[&str] = match self {
            Kind::Agree => &["interp", "vm"],
            Kind::Diverge => &["interp", "vm-fault"],
        };
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Cases per campaign: about half a second of work on the reference
    /// box, so a run's median spans many campaigns.
    fn cases(self) -> u32 {
        match self {
            Kind::Agree => 300,
            Kind::Diverge => 75,
        }
    }
}

/// The campaign a repetition runs: the shipped defaults, with the seed,
/// case count and lanes of the workload. Repetition `rep` of seed `s`
/// starts at case seed `s * 2^32 + rep * cases`, so no two repetitions
/// share a case.
pub fn config(kind: Kind, args: &Args, rep: u32) -> CampaignConfig {
    let cases = kind.cases();
    CampaignConfig {
        seed: (args.seed << 32).wrapping_add(u64::from(rep) * u64::from(cases)),
        cases,
        engines: args.engines.clone().unwrap_or_else(|| kind.engines()),
        ..CampaignConfig::default()
    }
}

/// Completion time of every case, in order.
#[derive(Default)]
struct Stamps(Vec<Instant>);

impl Progress for Stamps {
    fn case_done(&mut self, _record: &CaseRecord, _done: u32, _total: u32) {
        self.0.push(Instant::now());
    }
}

/// One timed local campaign.
pub struct LocalRun {
    /// The campaign's report.
    pub report: CampaignReport,
    /// Wall time of `rtl_campaign::run`.
    pub secs: f64,
    /// Per-case wall time between successive completions (the first
    /// case also carries the run's start-up, so it is left out).
    pub case_secs: Vec<f64>,
    /// Recorder events written (0 with the recorder off).
    pub events: usize,
}

/// Runs one campaign with one worker in a fresh `dir`.
pub fn local_run(dir: &Path, config: &CampaignConfig, recorder: bool) -> Result<LocalRun, String> {
    let (recorder, log) = if recorder {
        let (r, log) = Recorder::memory();
        (r, Some(log))
    } else {
        (Recorder::disabled(), None)
    };
    let options = RunOptions {
        workers: 1,
        recorder: recorder.clone(),
        ..RunOptions::default()
    };
    let mut stamps = Stamps::default();
    flush_writes();
    let start = Instant::now();
    let report = rtl_campaign::run(&CampaignDir::new(dir), config, &options, &mut stamps)
        .map_err(|e| format!("campaign run: {e}"))?;
    let secs = secs(start);
    recorder.flush();
    let case_secs = stamps
        .0
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let events = log.map_or(0, |log| log.text().lines().count());
    Ok(LocalRun {
        report,
        secs,
        case_secs,
        events,
    })
}

/// Checks every case of a finished campaign: agreeing campaigns verify
/// all cycles of every case; diverging ones diverge at the fault cycle
/// and archive a corpus entry.
pub fn check_cases(report: &mut Report, kind: Kind, dir: &CampaignDir, run: &CampaignReport) {
    let horizon = run.config.generator.cycles;
    for (index, record) in run.records.iter().enumerate() {
        let ok = match (kind, record) {
            (Kind::Agree, Some(r)) => r.status == CaseStatus::Agreed && r.cycles == horizon,
            (
                Kind::Diverge,
                Some(CaseRecord {
                    status:
                        CaseStatus::Diverged {
                            cycle,
                            corpus: Some(name),
                            ..
                        },
                    ..
                }),
            ) => {
                *cycle == rtl_cosim::DEFAULT_FAULT_CYCLE
                    && dir.corpus().join(format!("{name}.json")).is_file()
            }
            _ => false,
        };
        report.check(ok, || match record {
            Some(r) => format!(
                "case {index} (seed {}): {:?} after {} cycles",
                r.seed, r.status, r.cycles
            ),
            None => format!("case {index} has no record"),
        });
    }
}

/// Set-up as `rtl_campaign::run` pays it before the first case: the
/// campaign registry, lane-name validation and directory init.
fn setup(dir: &Path, config: &CampaignConfig) -> Result<f64, String> {
    let start = Instant::now();
    let registry = rtl_campaign::campaign_registry(None);
    registry.parse_list(&config.engines.join(","))?;
    CampaignDir::new(dir)
        .init(config)
        .map_err(|e| format!("init: {e}"))?;
    let secs = secs(start);
    black_box(registry);
    Ok(secs)
}

/// [`SETUPS_PER_REP`] set-ups in fresh directories next to `rep_dir`.
/// Sampled before every repetition rather than once up front, so the
/// median spans the run's moments, not just its first one; each starts
/// with the previous repetition's writes on disk.
fn setups(rep_dir: &Path, config: &CampaignConfig) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    flush_writes();
    for i in 0..SETUPS_PER_REP {
        let dir = rep_dir.with_extension(format!("setup-{i}"));
        samples.push(setup(&dir, config)?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(samples)
}

/// Runs the workload and fills the report.
pub fn run(args: &Args, kind: Kind) -> Result<Report, String> {
    let mut report = Report::default();
    if args.trace {
        traced(args, kind, &mut report)?;
        return Ok(report);
    }
    let budget = Budget::new(args.seconds);
    let mut setup = Vec::new();
    let (mut cycles, mut cases, mut secs, mut campaigns) = (0u64, 0u32, 0.0, 0u32);
    let mut rep = 0;
    // Repetition 0 warms the caches and the allocator: it is checked,
    // but its timings are left out.
    while rep < 2 || budget.running() {
        let config = config(kind, args, rep);
        let dir = args.runs.join(format!("rep-{rep}"));
        let samples = setups(&dir, &config)?;
        let run = local_run(&dir, &config, true)?;
        check_cases(&mut report, kind, &CampaignDir::new(&dir), &run.report);
        let _ = std::fs::remove_dir_all(&dir);
        if rep > 0 {
            setup.extend(samples);
            cycles += run.report.cycles_verified();
            cases += run.report.completed();
            secs += run.secs;
            campaigns += 1;
        }
        rep += 1;
    }
    report.metric("setup_s", median(&setup));
    report.metric("cycles_per_s", cycles as f64 / secs);
    report.extra("cases_per_s", f64::from(cases) / secs, "1/s");
    report.extra("campaigns", f64::from(campaigns), "");
    Ok(report)
}

/// Stage timings of the per-case pipeline, replayed from outside.
#[derive(Default)]
struct Stages {
    generate: Vec<f64>,
    parse: Vec<f64>,
    elaborate: Vec<f64>,
    lint: Vec<f64>,
    build: Vec<f64>,
    lockstep: Vec<f64>,
    persist: Vec<f64>,
    persist_bytes: Vec<f64>,
    shrink: Vec<f64>,
    shrink_probes: u64,
    save: Vec<f64>,
    entries: u64,
}

impl Stages {
    /// Mean microseconds per case of every stage, summed.
    fn total_us(&self, cases: usize) -> f64 {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let all = sum(&self.generate)
            + sum(&self.parse)
            + sum(&self.elaborate)
            + sum(&self.lint)
            + sum(&self.build)
            + sum(&self.lockstep)
            + sum(&self.persist)
            + sum(&self.shrink)
            + sum(&self.save);
        all * 1e6 / cases as f64
    }
}

/// Replays one case through the public call of each layer, in the order
/// the campaign runner reaches them, with the recorder attached as the
/// workload's campaigns have it (it gates lint and counts every lane).
#[allow(clippy::too_many_arguments)]
fn replay_case(
    report: &mut Report,
    kind: Kind,
    registry: &EngineRegistry,
    recorder: &Recorder,
    config: &CampaignConfig,
    dir: &CampaignDir,
    index: u32,
    stages: &mut Stages,
) -> Result<(), String> {
    let mut fuzz = config.fuzz_options();
    fuzz.cosim.recorder = recorder.clone();
    let seed = config.seed.wrapping_add(u64::from(index));
    let lap = |start: &mut Instant| {
        let now = Instant::now();
        let d = (now - *start).as_secs_f64();
        *start = now;
        d
    };

    let mut t = Instant::now();
    let scenario = rtl_cosim::generate_scenario(seed, &config.generator);
    stages.generate.push(lap(&mut t));
    let spec = rtl_lang::parse(&scenario.source).map_err(|e| e.to_string())?;
    stages.parse.push(lap(&mut t));
    let design = Design::elaborate(&spec).map_err(|e| e.to_string())?;
    stages.elaborate.push(lap(&mut t));
    recorder.count("lint", "designs_linted", 1);
    for (code, n) in rtl_lint::lint_source(&scenario.source).counts() {
        recorder.count("lint", code, n);
    }
    stages.lint.push(lap(&mut t));
    let options = EngineOptions {
        trace: fuzz.cosim.trace,
        ..EngineOptions::default()
    };
    let mut lanes = Vec::new();
    for name in &config.engines {
        match registry.build(name, &design, &options)? {
            EngineLane::Stepped(engine) => lanes.push((name, engine)),
            EngineLane::Stream(_) => return Err(format!("{name} is not a stepped lane")),
        }
    }
    stages.build.push(lap(&mut t));
    let mut lockstep = Lockstep::new(&design, fuzz.cosim.clone());
    lockstep.stimulus(scenario.input.clone());
    for (name, engine) in lanes {
        lockstep.add_lane(name, engine);
    }
    let outcome = lockstep.run(scenario.cycles);
    stages.lockstep.push(lap(&mut t));

    let (cycles, status) = match &outcome {
        CosimOutcome::Agreement { cycles, stop, .. } => {
            report.check(
                kind == Kind::Agree && *stop == StopReason::CycleLimit,
                || format!("replayed case {index}: lanes agreed, {stop}"),
            );
            (*cycles, CaseStatus::Agreed)
        }
        CosimOutcome::Divergence(d) => {
            report.check(kind == Kind::Diverge, || {
                format!("replayed case {index} diverged: {d}")
            });
            let cycle = u64::try_from(d.cycle).unwrap_or(0);
            let mut corpus = None;
            if kind == Kind::Diverge {
                let mut t = Instant::now();
                let shrunk = rtl_campaign::shrink_divergence(
                    registry,
                    &config.engines,
                    seed,
                    &config.generator,
                    &fuzz.cosim,
                )
                .map_err(|e| e.to_string())?;
                stages.shrink.push(lap(&mut t));
                if let Some(shrunk) = shrunk {
                    stages.shrink_probes += u64::from(shrunk.attempts);
                    let entry = rtl_campaign::corpus::save(
                        &dir.corpus(),
                        &shrunk,
                        &config.engines,
                        config.compare_every,
                    )
                    .map_err(|e| e.to_string())?;
                    stages.save.push(lap(&mut t));
                    stages.entries += 1;
                    corpus = Some(entry.name);
                }
            }
            let kind = rtl_campaign::corpus::kind_label(&d.kind);
            (
                cycle,
                CaseStatus::Diverged {
                    cycle,
                    kind,
                    corpus,
                },
            )
        }
    };
    let record = CaseRecord {
        index,
        seed,
        cycles,
        lane_stats: outcome
            .lane_stats()
            .iter()
            .map(|s| LaneAccess {
                lane: s.lane.clone(),
                cycles: s.stats.cycles,
                accesses: s.stats.total_accesses(),
            })
            .collect(),
        status,
    };
    let mut t = Instant::now();
    dir.write_case(&record).map_err(|e| e.to_string())?;
    stages.persist.push(lap(&mut t));
    let bytes = std::fs::metadata(dir.case_path(index)).map_or(0, |m| m.len());
    stages.persist_bytes.push(bytes as f64);
    Ok(())
}

/// The traced run: stage-by-stage replay on part of the budget, then
/// real campaigns alternating recorder on and off.
fn traced(args: &Args, kind: Kind, report: &mut Report) -> Result<(), String> {
    // Stage replay over one campaign's cases (so the corpus grows as it
    // does in a real campaign), within its share of the budget.
    let config = config(kind, args, u32::MAX);
    let dir = CampaignDir::new(args.runs.join("replay"));
    dir.init(&config).map_err(|e| e.to_string())?;
    let registry = rtl_campaign::campaign_registry(None);
    let (recorder, _log) = Recorder::memory();
    let mut stages = Stages::default();
    flush_writes();
    let budget = Budget::new(args.seconds * 0.4);
    let mut replayed = 0u32;
    while replayed < config.cases && budget.running() {
        replay_case(
            report,
            kind,
            &registry,
            &recorder,
            &config,
            &dir,
            replayed,
            &mut stages,
        )?;
        replayed += 1;
    }
    let us = |v: &[f64]| mean(v) * 1e6;
    report.metric("generate.us_per_case", us(&stages.generate));
    report.metric("parse.us_per_case", us(&stages.parse));
    report.metric("elaborate.us_per_case", us(&stages.elaborate));
    report.metric("lint.us_per_case", us(&stages.lint));
    report.metric("lanes.build_us_per_case", us(&stages.build));
    report.metric("case_lockstep.us_per_case", us(&stages.lockstep));
    report.metric("persist.us_per_case", us(&stages.persist));
    report.metric("persist.bytes_per_case", mean(&stages.persist_bytes));
    if kind == Kind::Diverge {
        report.metric("shrink.ms_per_divergence", mean(&stages.shrink) * 1e3);
        report.metric(
            "shrink.probes_per_divergence",
            stages.shrink_probes as f64 / stages.entries.max(1) as f64,
        );
        report.metric("corpus.save_us_per_entry", us(&stages.save));
    }

    // Real campaigns, recorder on and off in turn.
    let budget = Budget::new(args.seconds * 0.6);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut case_secs, mut events, mut cases) = (Vec::new(), 0usize, 0u32);
    let mut setup = Vec::new();
    let mut rep = 0;
    while rep < 2 || budget.running() {
        let recorder = rep % 2 == 0;
        let config = self::config(kind, args, rep);
        let dir = args.runs.join(format!("rep-{rep}"));
        setup.extend(setups(&dir, &config)?);
        let run = local_run(&dir, &config, recorder)?;
        check_cases(report, kind, &CampaignDir::new(&dir), &run.report);
        let _ = std::fs::remove_dir_all(&dir);
        if recorder {
            on.push(run.secs);
            case_secs.extend(run.case_secs);
            events += run.events;
            cases += run.report.completed();
        } else {
            off.push(run.secs);
        }
        rep += 1;
    }
    report.metric("setup_s", median(&setup));
    let case_ms: Vec<f64> = case_secs.iter().map(|s| s * 1e3).collect();
    report.metric("cases_per_s", f64::from(kind.cases()) / median(&on));
    report.metric("case.ms_p50", median(&case_ms));
    report.metric("case.ms_p99", quantile(&case_ms, 0.99));
    report.metric(
        "case.traced_share",
        stages.total_us(replayed as usize) / (mean(&case_secs) * 1e6),
    );
    report.metric("obs.events_per_case", events as f64 / f64::from(cases));
    report.metric(
        "obs.recorder_cost_pct",
        (median(&on) / median(&off) - 1.0) * 100.0,
    );
    report.extra("traced.cases_replayed", f64::from(replayed), "");
    report.extra("traced.case_samples", case_ms.len() as f64, "");
    Ok(())
}
