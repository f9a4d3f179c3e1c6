//! Conditions a number was taken under: the run manifest and the host
//! counters read from `/proc`, and the probe of the host's speed.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Total steal ticks of all CPUs (the eighth counter of `/proc/stat`'s
/// `cpu` line), or `None` where the file is unavailable.
#[must_use]
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The one-minute load average, or `None` where unavailable.
#[must_use]
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// The process's peak resident set size (`VmHWM`) in MiB, or `None` where
/// unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `"unknown"` when it is not a git checkout.
#[must_use]
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_owned() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc -V` of the toolchain on `PATH`, or `"unknown"`.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Nanoseconds per [`SpeedProbe`] step, about the median on a 2-CPU
/// host. Rates are scaled to this speed; the constant only sets their
/// scale, since two commits are compared with the same benchmark code.
pub const PROBE_REF_NS_PER_STEP: f64 = 500.0;

/// A fixed miniature of the simulated memory system that measures the
/// host's momentary speed.
///
/// On a shared host the simulator's speed drifts by a quarter over tens
/// of seconds as other tenants load the machine. The probe does the same
/// kind of work as the simulator's cycle loop, at a similar cache
/// footprint: eight cores with 64-entry windows issue random requests into
/// eight 32-entry bank queues, a controller serves each bank row-hit-first
/// then oldest every fourth cycle, and a hash map tracks the requests in
/// flight. Its time per step tracks the simulator's round rate with a
/// correlation of about 0.88. It is the benchmark's own code, so it does
/// not change with the simulator.
#[derive(Debug, Clone)]
pub struct SpeedProbe {
    /// Per bank: queued (row, arrival, id).
    banks: Vec<Vec<(u32, u32, u64)>>,
    open_rows: Vec<u32>,
    /// Per core: ids of its requests in issue order.
    windows: Vec<VecDeque<u64>>,
    in_flight: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    /// (id, cycle it completes), in completion order.
    completing: VecDeque<(u64, u32)>,
    rng: u64,
    now: u32,
    next_id: u64,
}

impl SpeedProbe {
    const BANKS: usize = 8;
    const CORES: usize = 8;
    const WINDOW: usize = 64;
    const QUEUE: usize = 32;
    const ROWS: u64 = 64;
    const LATENCY: u32 = 20;
    /// Timed steps per call to [`SpeedProbe::time`], about 2 ms.
    pub const STEPS: u64 = 3_000;

    /// A probe run long enough to fill its queues.
    #[must_use]
    pub fn new() -> Self {
        let mut probe = SpeedProbe {
            banks: (0..Self::BANKS).map(|_| Vec::with_capacity(Self::QUEUE)).collect(),
            open_rows: vec![0; Self::BANKS],
            windows: (0..Self::CORES).map(|_| VecDeque::with_capacity(Self::WINDOW)).collect(),
            in_flight: HashMap::default(),
            completing: VecDeque::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
            now: 0,
            next_id: 0,
        };
        probe.steps(20 * Self::STEPS);
        probe
    }

    /// Runs a tenth of [`SpeedProbe::STEPS`] untimed, to bring the probe's
    /// state back into the caches, then [`SpeedProbe::STEPS`] timed, and
    /// returns their seconds.
    pub fn time(&mut self) -> f64 {
        self.steps(Self::STEPS / 10);
        let start = std::time::Instant::now();
        self.steps(Self::STEPS);
        start.elapsed().as_secs_f64()
    }

    fn random(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn steps(&mut self, steps: u64) {
        for _ in 0..steps {
            self.now = self.now.wrapping_add(1);
            for core in 0..Self::CORES {
                let r = self.random();
                let bank = (r >> 8) as usize % Self::BANKS;
                if r.is_multiple_of(4)
                    && self.windows[core].len() < Self::WINDOW
                    && self.banks[bank].len() < Self::QUEUE
                {
                    self.next_id += 1;
                    let row = ((r >> 16) % Self::ROWS) as u32;
                    self.banks[bank].push((row, self.now, self.next_id));
                    self.in_flight.insert(self.next_id, self.now);
                    self.windows[core].push_back(self.next_id);
                } else if let Some(oldest) = self.windows[core].front() {
                    if !self.in_flight.contains_key(oldest) {
                        self.windows[core].pop_front();
                    }
                }
            }
            if self.now.is_multiple_of(4) {
                for bank in 0..Self::BANKS {
                    let open = self.open_rows[bank];
                    let queue = &mut self.banks[bank];
                    let best = queue
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &(row, arrival, _))| (row == open, Reverse(arrival)))
                        .map(|(i, _)| i);
                    if let Some(i) = best {
                        let (row, _, id) = queue.swap_remove(i);
                        self.open_rows[bank] = row;
                        self.completing.push_back((id, self.now.wrapping_add(Self::LATENCY)));
                    }
                }
            }
            while let Some(&(id, at)) = self.completing.front() {
                if at != self.now {
                    break;
                }
                self.completing.pop_front();
                self.in_flight.remove(&id);
            }
        }
        std::hint::black_box(&self.in_flight);
    }
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// Host readings taken at the start and end of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostWindow {
    steal_start: Option<u64>,
    load_start: Option<f64>,
}

impl HostWindow {
    /// Starts the window.
    #[must_use]
    pub fn open() -> Self {
        HostWindow { steal_start: steal_ticks(), load_start: load_average() }
    }

    /// Manifest fields for the window up to now: steal ticks accrued and
    /// the load average at both ends (`null` where unreadable).
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_owned());
        let steal = self.steal_start.zip(steal_ticks()).map(|(a, b)| b.saturating_sub(a));
        vec![
            ("steal_ticks", opt(steal.map(|v| v.to_string()))),
            ("loadavg_start", opt(self.load_start.map(|v| v.to_string()))),
            ("loadavg_end", opt(load_average().map(|v| v.to_string()))),
        ]
    }
}
