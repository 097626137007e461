//! `fleet-agree`: the `campaign-agree` configuration served by an
//! in-process `rtl_fleet::Controller` on localhost to one single-threaded
//! `rtl_fleet::work` worker at the default lease.

use crate::campaign::{self, check_cases, Kind};
use crate::report::Report;
use crate::stats::{flush_writes, median, quantile, Budget};
use crate::Args;
use rtl_campaign::{CampaignConfig, CampaignDir, CampaignReport, CaseRecord};
use rtl_core::Recorder;
use rtl_fleet::{Controller, ControllerOptions, FleetProgress, WorkerOptions, WorkerReport};
use std::path::Path;
use std::time::Instant;

/// When the worker joined, and when each record was accepted.
#[derive(Default)]
struct Stamps {
    joined: Option<Instant>,
    accepted: Vec<Instant>,
}

impl FleetProgress for Stamps {
    fn record_accepted(&mut self, _worker: &str, _record: &CaseRecord, _done: u32, _total: u32) {
        self.accepted.push(Instant::now());
    }

    fn worker_joined(&mut self, _worker: &str) {
        self.joined.get_or_insert_with(Instant::now);
    }
}

/// One served campaign.
struct FleetRun {
    report: CampaignReport,
    worker: WorkerReport,
    /// Bind until the worker's handshake completed.
    setup: f64,
    /// Handshake until the controller returned.
    secs: f64,
    /// Wall time of each lease, from the previous lease's last accepted
    /// record (or the handshake) to its own last accepted record.
    lease_secs: Vec<f64>,
    accepted: usize,
}

/// Serves `config` from `dir` to one worker working in `scratch`.
///
/// The campaign directory is initialized before the clock starts (the
/// controller then resumes it), so set-up is bind plus handshake;
/// directory init is the campaign workloads' set-up.
fn serve(
    config: &CampaignConfig,
    dir: &Path,
    scratch: &Path,
    recorder: Recorder,
) -> Result<FleetRun, String> {
    CampaignDir::new(dir)
        .init(config)
        .map_err(|e| format!("init: {e}"))?;
    flush_writes();
    let start = Instant::now();
    let controller = Controller::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = controller
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let worker_options = WorkerOptions {
        token: "perfbench".into(),
        name: "w0".into(),
        threads: 1,
        scratch: scratch.to_path_buf(),
        ..WorkerOptions::default()
    };
    let options = ControllerOptions {
        token: "perfbench".into(),
        recorder,
        ..ControllerOptions::default()
    };
    let lease = options.lease as usize;
    let mut stamps = Stamps::default();
    let (served, worked) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| rtl_fleet::work(&addr, &worker_options));
        let served = controller.serve(&CampaignDir::new(dir), config, &options, &mut stamps);
        (served, worker.join())
    });
    let end = Instant::now();
    let report = served.map_err(|e| format!("serve: {e}"))?;
    let worker = worked
        .map_err(|_| "the worker thread panicked".to_string())?
        .map_err(|e| format!("worker: {e}"))?;
    let joined = stamps.joined.ok_or("the worker never joined")?;
    let mut lease_secs = Vec::new();
    let mut previous = joined;
    for chunk in stamps.accepted.chunks(lease) {
        let last = *chunk.last().expect("chunks are non-empty");
        lease_secs.push((last - previous).as_secs_f64());
        previous = last;
    }
    Ok(FleetRun {
        report,
        worker,
        setup: (joined - start).as_secs_f64(),
        secs: (end - joined).as_secs_f64(),
        lease_secs,
        accepted: stamps.accepted.len(),
    })
}

/// Checks a served campaign: every case agreed over its horizon, and the
/// worker uploaded each exactly once.
fn check_served(report: &mut Report, dir: &Path, run: &FleetRun) {
    check_cases(report, Kind::Agree, &CampaignDir::new(dir), &run.report);
    report.check(run.worker.cases == run.report.config.cases, || {
        format!(
            "the worker uploaded {} records for {} cases",
            run.worker.cases, run.report.config.cases
        )
    });
}

/// Checks that the served `cases/` records are byte-identical to a local
/// single-machine run of the same configuration.
fn check_identical(report: &mut Report, args: &Args, config: &CampaignConfig, served: &Path) {
    let local = args.runs.join("local-reference");
    if let Err(e) = campaign::local_run(&local, config, true) {
        report.check(false, || format!("local reference campaign: {e}"));
        return;
    }
    let list = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(CampaignDir::new(dir).cases())
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    };
    let (ours, theirs) = (list(served), list(&local));
    report.check(ours == theirs, || {
        format!(
            "fleet wrote {} case files, the local run {}",
            ours.len(),
            theirs.len()
        )
    });
    for name in &ours {
        let read = |dir: &Path| std::fs::read(CampaignDir::new(dir).cases().join(name)).ok();
        let (a, b) = (read(served), read(&local));
        report.check(a.is_some() && a == b, || {
            format!("{name} differs from the local run's")
        });
    }
    let _ = std::fs::remove_dir_all(&local);
}

/// Runs the workload and fills the report.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    if args.trace {
        traced(args, &mut report, &mut setups)?;
        report.metric("setup_s", median(&setups));
        return Ok(report);
    }
    let budget = Budget::new(args.seconds);
    let (mut cycles, mut cases, mut secs, mut campaigns) = (0u64, 0u32, 0.0, 0u32);
    let mut rep = 0;
    // Repetition 0 warms the caches and the allocator: it is checked,
    // but its timings are left out.
    while rep < 2 || budget.running() {
        let config = campaign::config(Kind::Agree, args, rep);
        let dir = args.runs.join(format!("rep-{rep}"));
        let scratch = args.runs.join(format!("scratch-{rep}"));
        let run = serve(&config, &dir, &scratch, Recorder::disabled())?;
        check_served(&mut report, &dir, &run);
        if rep == 0 {
            check_identical(&mut report, args, &config, &dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
        if rep > 0 {
            setups.push(run.setup);
            cycles += run.report.cycles_verified();
            cases += run.report.completed();
            secs += run.secs;
            campaigns += 1;
        }
        rep += 1;
    }
    report.metric("setup_s", median(&setups));
    report.metric("cycles_per_s", cycles as f64 / secs);
    report.extra("cases_per_s", f64::from(cases) / secs, "1/s");
    report.extra("campaigns", f64::from(campaigns), "");
    Ok(report)
}

/// The traced run: local, served, and served-with-streamed-metrics
/// campaigns in turn, compared at equal worker count.
fn traced(args: &Args, report: &mut Report, setups: &mut Vec<f64>) -> Result<(), String> {
    let budget = Budget::new(args.seconds);
    let (mut local, mut fleet, mut streamed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lease_ms, mut accepted, mut uploaded, mut leases) = (Vec::new(), 0, 0, 0);
    let mut rep = 0;
    while rep < 3 || budget.running() {
        let config = campaign::config(Kind::Agree, args, rep);
        let dir = args.runs.join(format!("rep-{rep}"));
        let scratch = args.runs.join(format!("scratch-{rep}"));
        match rep % 3 {
            0 => {
                let run = campaign::local_run(&dir, &config, true)?;
                check_cases(report, Kind::Agree, &CampaignDir::new(&dir), &run.report);
                local.push(run.secs);
            }
            kind => {
                let log = args.runs.join(format!("metrics-{rep}.jsonl"));
                let recorder = if kind == 2 {
                    Recorder::to_file(&log).map_err(|e| format!("metrics log: {e}"))?
                } else {
                    Recorder::disabled()
                };
                let run = serve(&config, &dir, &scratch, recorder)?;
                check_served(report, &dir, &run);
                setups.push(run.setup);
                let _ = std::fs::remove_file(&log);
                if kind == 2 {
                    streamed.push(run.secs);
                } else {
                    fleet.push(run.secs);
                    lease_ms.extend(run.lease_secs.iter().map(|s| s * 1e3));
                    leases += run.lease_secs.len();
                    accepted += run.accepted;
                    uploaded += run.worker.cases as usize;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
        rep += 1;
    }
    let cases = f64::from(campaign::config(Kind::Agree, args, 0).cases);
    let leases_per_campaign = leases as f64 / fleet.len() as f64;
    report.metric("cases_per_s", cases / median(&fleet));
    report.metric("fleet.lease_ms_p50", median(&lease_ms));
    report.metric("fleet.lease_ms_p99", quantile(&lease_ms, 0.99));
    report.metric(
        "fleet.overhead_ms_per_lease",
        (median(&fleet) - median(&local)) * 1e3 / leases_per_campaign,
    );
    report.metric(
        "fleet.upload_useful_ratio",
        accepted as f64 / uploaded.max(1) as f64,
    );
    report.metric("fleet.slowdown_vs_local", median(&fleet) / median(&local));
    report.metric(
        "fleet.stream_overhead_pct",
        (median(&streamed) / median(&fleet) - 1.0) * 100.0,
    );
    report.extra("traced.leases", leases as f64, "");
    Ok(())
}
