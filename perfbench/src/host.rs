//! The host the benchmark runs on: its speed right now, its memory, and
//! the facts printed with every result.

use std::time::Instant;

use crate::stats::{iqr_frac, median};

/// The reference kernel's time on an unloaded 2-vCPU Xeon host. It only
/// scales normalized values back to seconds of such a host.
pub const REF_NOMINAL_S: f64 = 0.0035;

/// Steps of the reference kernel per timing (about 3.5 ms unloaded).
const REF_STEPS: usize = 1_000_000;

/// Timings per reading.
const REF_TRIES: usize = 3;

/// Tracks how fast the host runs, with a fixed reference kernel timed
/// between measurements.
///
/// On a shared machine the host's speed can drift by 2× within a minute.
/// The reference kernel — random reads from a 2 MiB table mixed with
/// integer arithmetic, written here and sharing no code with the
/// repository — slows down with it, so multiplying a time by
/// `REF_NOMINAL_S` over the reference time measured around it cancels
/// most of the drift. A change to the repository cannot move the
/// reference.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u64>,
    last_s: f64,
    /// Every reference reading, in seconds.
    readings: Vec<f64>,
}

impl HostSpeed {
    /// Builds the table and takes the first reading.
    pub fn new() -> Self {
        let table = (0..1u64 << 18)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut speed = HostSpeed {
            table,
            last_s: 0.0,
            readings: Vec::new(),
        };
        speed.last_s = speed.reference();
        speed
    }

    fn reference(&mut self) -> f64 {
        let secs = kernel(&self.table);
        self.readings.push(secs);
        secs
    }

    /// One line on how fast the host ran over the readings so far.
    pub fn summary(&self) -> String {
        format!(
            "host speed: reference kernel median {:.3} ms over {} readings (nominal {:.3} ms, iqr/med {:.4})",
            median(&self.readings) * 1e3,
            self.readings.len(),
            REF_NOMINAL_S * 1e3,
            iqr_frac(&self.readings)
        )
    }

    /// Takes a fresh reading to open the next interval after untimed work.
    pub fn mark(&mut self) {
        self.last_s = self.reference();
    }

    /// Takes a reading and returns the factor that normalizes a host time
    /// measured since the previous reading: `REF_NOMINAL_S` over the mean
    /// of the two readings around it.
    pub fn scale(&mut self) -> f64 {
        let now = self.reference();
        let scale = 2.0 * REF_NOMINAL_S / (self.last_s + now);
        self.last_s = now;
        scale
    }
}

/// The fastest of `REF_TRIES` timings of the reference kernel:
/// interrupts and preemption only ever add time, so the minimum tracks
/// the host's speed with the least noise.
fn kernel(table: &[u64]) -> f64 {
    let mask = table.len() - 1;
    let mut best = f64::INFINITY;
    for _ in 0..REF_TRIES {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc: u64 = 0;
        for _ in 0..REF_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(table[x as usize & mask]).rotate_left(5);
        }
        std::hint::black_box(acc);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The host facts printed with every result, so a reader can tell a
/// host change from a code change.
pub fn host_context(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "context: workload={workload} seed={seed} trace={} nproc={nproc} cpu=\"{}\" commit={}",
        u8::from(trace),
        cpu_model(),
        commit()
    )
}

/// Peak resident set of this process in MB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// (no git process, nothing read outside the checkout); `unknown` in a
/// plain source tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
