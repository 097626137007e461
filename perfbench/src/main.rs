//! `asim2-perfbench` — the outside-in benchmark for asim2.
//!
//! One command runs one named workload and prints every metric by name
//! with its unit, then a single JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sieve-long --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` a separate traced run times calls
//! into each layer from outside and reports the per-layer metrics.
//! Metric names and units are read from `BENCHMARK.json` at the root of
//! the checkout, so the document is the single list of what is reported.
//! Every workload checks its outputs; a failed check makes the result
//! `"correct": false` and the exit code 1.
//!
//! See `perfbench/NOTES.md` for the workloads, the metric-to-workload
//! table and the re-derived claims.

#![forbid(unsafe_code)]

mod campaign;
mod env;
mod fleet;
mod report;
mod sieve;
mod stats;

use report::Report;
use rtl_campaign::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "sieve-long",
    "campaign-agree",
    "campaign-diverge",
    "fleet-agree",
];

/// Wall-clock limit of one run, set-up and checks included.
const DEADLINE_SECS: u64 = 170;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time budget of the run.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Lane-set override for the campaign and fleet workloads
    /// (`interp,vm-fault` on `campaign-agree` shows the correctness gate
    /// firing).
    pub engines: Option<Vec<String>>,
    /// Scratch root for campaign directories (inside the checkout).
    pub runs: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut engines = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--engines" => engines = Some(value.split(',').map(str::to_string).collect()),
            other => {
                return Err(format!(
                "unknown flag {other:?} (accepted: --workload --seed --seconds --trace --engines)"
            ))
            }
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    if engines.is_some() && workload == "sieve-long" {
        return Err("--engines applies to the campaign and fleet workloads only".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        engines,
        runs: PathBuf::from("perfbench")
            .join(".runs")
            .join(std::process::id().to_string()),
    })
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json {key} entry without {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "sieve-long" => sieve::run(args),
        "campaign-agree" => campaign::run(args, campaign::Kind::Agree),
        "campaign-diverge" => campaign::run(args, campaign::Kind::Diverge),
        "fleet-agree" => fleet::run(args),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = match declared_metrics(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A run must end within its 180 s allowance even if a layer hangs
    // (a fleet worker that never joins would keep the controller
    // serving): past the deadline the process exits without a result.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(DEADLINE_SECS));
        eprintln!("perfbench: no result after {DEADLINE_SECS} s, giving up");
        std::process::exit(4);
    });
    if let Err(e) = std::fs::create_dir_all(&args.runs) {
        eprintln!("perfbench: cannot create {}: {e}", args.runs.display());
        return ExitCode::from(2);
    }
    let env = env::Environment::capture(&args);
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.runs);
    if let Some(root) = args.runs.parent() {
        // Only succeeds once no other run is using the scratch root.
        let _ = std::fs::remove_dir(root);
    }
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(3);
        }
    };
    report.metric("peak_rss_mb", env::peak_rss_mb());
    match report.finish(&args, &env, &declared) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
