//! Order statistics over timing samples, the run budget, and the flush
//! that keeps earlier writes out of a timed window.

use std::process::Command;
use std::time::{Duration, Instant};

/// The `q`-quantile (`0.0..=1.0`) by nearest rank; NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median; NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A measured time budget: `running()` until `seconds` have elapsed.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds),
        }
    }

    /// `true` while the budget has time left.
    pub fn running(&self) -> bool {
        self.start.elapsed() < self.limit
    }
}

/// How long [`flush_writes`] waits for `sync` before killing it.
const SYNC_LIMIT: Duration = Duration::from_secs(20);

/// Writes every dirty page of the page cache back to disk (`sync`) and
/// waits for it, so that writeback of earlier work does not land inside
/// the next timed window. Run directories are on disk, and the kernel
/// writes their files back and commits the journal seconds after they
/// were written, through the same cores and journal the timed work uses.
/// Never called inside a timed window. A missing `sync` is ignored; one
/// that outlives [`SYNC_LIMIT`] is killed and reaped.
pub fn flush_writes() {
    let Ok(mut child) = Command::new("sync").spawn() else {
        return;
    };
    let start = Instant::now();
    while let Ok(None) = child.try_wait() {
        if start.elapsed() > SYNC_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
