//! The environment every result records: core count, compiler, source
//! revision, and where the run directories lived.

use crate::Args;
use rtl_campaign::json::Json;
use std::path::Path;
use std::process::Command;

/// What the result line's numbers depend on besides the code.
pub struct Environment {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    rustc: String,
    git_rev: String,
    source_fnv: String,
    run_dir_fs: String,
}

impl Environment {
    /// Captures the environment; `args.runs` must already exist.
    pub fn capture(args: &Args) -> Environment {
        Environment {
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
            } else {
                "none (not a git checkout)".into()
            },
            source_fnv: format!("{:016x}", source_fingerprint(Path::new("crates"))),
            run_dir_fs: filesystem_of(&args.runs),
        }
    }

    /// The environment as a `{"env": {...}}` document.
    pub fn to_json(&self) -> Json {
        let storage = if self.run_dir_fs == "tmpfs" {
            "tmpfs"
        } else {
            "disk"
        };
        Json::Obj(vec![(
            "env".into(),
            Json::Obj(vec![
                ("workload".into(), Json::str(self.workload.clone())),
                ("seed".into(), Json::num(self.seed)),
                ("seconds".into(), Json::num(self.seconds)),
                ("trace".into(), Json::Bool(self.trace)),
                ("nproc".into(), Json::num(self.nproc)),
                ("rustc".into(), Json::str(self.rustc.clone())),
                ("git_rev".into(), Json::str(self.git_rev.clone())),
                ("source_fnv".into(), Json::str(self.source_fnv.clone())),
                ("run_dir_fs".into(), Json::str(self.run_dir_fs.clone())),
                ("run_dirs_on".into(), Json::str(storage)),
            ]),
        )])
    }
}

/// The first line a command prints, or `None` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over every file under `root` (paths and bytes, in sorted path
/// order): identifies the code under test when the checkout carries no
/// git metadata.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(root, &mut files);
    files.sort();
    let mut fp = rtl_core::Fingerprint::new();
    for path in files {
        fp.write_str(&path.to_string_lossy());
        if let Ok(bytes) = std::fs::read(&path) {
            fp.write(&bytes);
        }
    }
    fp.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `unknown`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        let mount = Path::new(mount);
        if path.starts_with(mount) {
            let depth = mount.components().count();
            if best.as_ref().is_none_or(|(d, _)| depth >= *d) {
                best = Some((depth, fstype.to_string()));
            }
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
