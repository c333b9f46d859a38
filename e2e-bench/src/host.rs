//! Host readings from `/proc`: process CPU time and peak RSS, host steal
//! time and load, and a fixed calibration probe. They tell a run slowed
//! by the host apart from a slow program; none of them is gated.

use std::time::Instant;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Kernel clock ticks per second, the unit of `/proc` CPU times.
pub fn clock_ticks() -> f64 {
    // SAFETY: sysconf only reads a process-wide constant; it has no
    // preconditions and touches no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User plus system CPU seconds consumed so far by process `pid`.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks())
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-wide steal seconds so far (the `steal` column of `/proc/stat`).
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / clock_ticks())
}

/// One-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time a fixed, deterministic CPU-bound probe (an xorshift stream
/// sorted in chunks) and return the fastest of three tries in ms. The
/// same work on the same host should take the same time; a slower probe
/// after a phase than before it means the host slowed down.
pub fn calibration_probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut checksum = 0u64;
        let mut chunk = vec![0u64; 4096];
        for _ in 0..64 {
            for slot in chunk.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = x;
            }
            chunk.sort_unstable();
            checksum = checksum.wrapping_add(chunk[chunk.len() / 2]);
        }
        std::hint::black_box(checksum);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The host-noise record of one run.
#[derive(Debug, Clone, Default)]
pub struct HostNoise {
    /// Logical CPUs.
    pub cpus: usize,
    /// One-minute load average at the end of the measured phase.
    pub loadavg_1m: f64,
    /// Host steal seconds during the measured phase.
    pub steal_s: f64,
    /// Calibration probe before the phase, ms.
    pub probe_before_ms: f64,
    /// Calibration probe after the phase, ms.
    pub probe_after_ms: f64,
}

/// Brackets a measured phase with host readings.
pub struct NoiseMeter {
    steal0: f64,
    probe_before_ms: f64,
}

impl NoiseMeter {
    /// Take the before-phase readings.
    pub fn start() -> Self {
        let probe_before_ms = calibration_probe_ms();
        NoiseMeter { steal0: steal_s().unwrap_or(0.0), probe_before_ms }
    }

    /// Take the after-phase readings.
    pub fn finish(self) -> HostNoise {
        let steal = steal_s().unwrap_or(self.steal0) - self.steal0;
        HostNoise {
            cpus: cpus(),
            loadavg_1m: loadavg_1m().unwrap_or(0.0),
            steal_s: steal.max(0.0),
            probe_before_ms: self.probe_before_ms,
            probe_after_ms: calibration_probe_ms(),
        }
    }
}
