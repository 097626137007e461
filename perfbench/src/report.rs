//! The run's tally of checked operations and its metrics, and the
//! printed result: one line per metric, the environment, then the JSON
//! result line (`correct`, `attempted`, `failed`, `metrics`) that tools
//! comparing runs read.

use crate::env::Environment;
use crate::Args;
use rtl_campaign::json::Json;

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
    extras: Vec<(String, f64, &'static str)>,
}

/// At most this many failure messages are kept for printing.
const MAX_FAILURES: usize = 10;

impl Report {
    /// Counts one checked operation; a failed check is counted and its
    /// message kept.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(what());
            }
        }
    }

    /// Records a metric declared in `BENCHMARK.json` for this mode (or
    /// printed only, when this mode does not declare it).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a figure that is printed with the report but is not part
    /// of the result line.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    /// Prints the report and the result line; `Ok(true)` when every
    /// check passed.
    ///
    /// In a traced run, a per-layer metric the workload does not reach
    /// reads 0 (the layer did no work on it).
    pub fn finish(
        self,
        args: &Args,
        env: &Environment,
        declared: &[(String, String)],
    ) -> Result<bool, String> {
        if self.attempted == 0 {
            return Err("the workload attempted no operation".into());
        }
        for (name, value) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})"));
            }
        }
        let mut result = Vec::new();
        for (name, unit) in declared {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None if args.trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            println!("metric {name} = {value} {unit}");
            result.push((
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::num(value)),
                    ("unit".into(), Json::str(unit.clone())),
                ]),
            ));
        }
        for (name, value) in &self.metrics {
            if !declared.iter().any(|(n, _)| n == name) {
                println!("report {name} = {value}");
            }
        }
        for (name, value, unit) in &self.extras {
            println!("report {name} = {value} {unit}");
        }
        let failed_frac = self.failed as f64 / self.attempted as f64;
        println!(
            "report failed_frac = {failed_frac} (failed {} of {} attempted)",
            self.failed, self.attempted
        );
        for failure in &self.failures {
            eprintln!("check failed: {failure}");
        }
        println!("{}", one_line(&env.to_json()));
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            ("metrics".into(), Json::Obj(result)),
        ]);
        println!("{}", one_line(&line));
        Ok(self.failed == 0)
    }
}

/// Renders a document on one line. `Json::render` indents; string
/// values escape their newlines, so every line break is layout.
fn one_line(doc: &Json) -> String {
    doc.render().lines().map(str::trim_start).collect()
}
