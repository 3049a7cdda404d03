//! What a result was measured on, printed with every result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// How often the steal sampler reads `/proc/stat`.
const STEAL_SAMPLE: Duration = Duration::from_millis(100);

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let fields: Vec<u64> =
            cpu.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so only the first eight sum.
        let total = fields.iter().take(8).sum();
        CpuTimes { steal: fields.get(7).copied().unwrap_or(0), total }
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Reads `/proc/stat` every `STEAL_SAMPLE` on a thread of its own, so the
/// hypervisor's steal can be told apart per one-second window.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, CpuTimes)>>,
}

impl StealSampler {
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = vec![(Instant::now(), CpuTimes::now())];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(STEAL_SAMPLE);
                samples.push((Instant::now(), CpuTimes::now()));
            }
            samples
        });
        StealSampler { stop, thread }
    }

    /// Stops and joins the sampler.
    pub fn finish(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        StealLog(self.thread.join().expect("steal sampler panicked"))
    }
}

pub struct StealLog(Vec<(Instant, CpuTimes)>);

impl StealLog {
    /// Steal share over `[from, to)`, between the last sample taken at or
    /// before `from` and the first taken at or after `to`.
    pub fn share(&self, from: Instant, to: Instant) -> f64 {
        let first = self.0.iter().rev().find(|(t, _)| *t <= from).unwrap_or(&self.0[0]);
        let last = self.0.iter().find(|(t, _)| *t >= to).unwrap_or(&self.0[self.0.len() - 1]);
        last.1.steal_share_since(&first.1)
    }
}
