//! Host readings: process memory and CPU time from `/proc`, and the run
//! metadata (host, toolchain, commit).

use std::time::Instant;

/// Host threads the benchmark may use: `available_parallelism`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Kernel clock ticks per second for `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 by the Linux ABI on the architectures this runs on).
const USER_HZ: f64 = 100.0;

/// Cumulative user and system CPU seconds of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads `utime` and `stime` from `/proc/self/stat`.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let user: f64 = fields.get(11)?.parse().ok()?;
        let sys: f64 = fields.get(12)?.parse().ok()?;
        Some(Self { user_s: user / USER_HZ, sys_s: sys / USER_HZ })
    }
}

/// CPU use of the process over an interval.
#[derive(Debug)]
pub struct CpuMeter {
    start: Instant,
    cpu: CpuTimes,
}

impl CpuMeter {
    /// Starts measuring.
    pub fn start() -> Self {
        Self { start: Instant::now(), cpu: CpuTimes::now().unwrap_or_default() }
    }

    /// `(cpu_utilization, sys_frac)` since [`start`](Self::start): CPU
    /// seconds over wall seconds times [`nproc`], and the system share of
    /// the CPU seconds.
    pub fn read(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        let now = CpuTimes::now().unwrap_or_default();
        let user = now.user_s - self.cpu.user_s;
        let sys = now.sys_s - self.cpu.sys_s;
        let cpu = user + sys;
        let util = if wall > 0.0 { cpu / wall / nproc() as f64 } else { 0.0 };
        let sys_frac = if cpu > 0.0 { sys / cpu } else { 0.0 };
        (util, sys_frac)
    }
}

/// Host-speed reference: nanoseconds for a fixed, product-independent
/// mix of branchy integer work, table lookups and float arithmetic (the
/// shape of an interpreter), median of `reps` measurements.
pub fn host_reference_ns(reps: usize) -> f64 {
    let table: Vec<u32> = (0..1u32 << 18).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let (mut x, mut acc, mut f) = (0x9e37_79b9_u32, 0u32, 1.0f32);
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let v = table[(x as usize) & (table.len() - 1)];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                f = f * 0.999_9 + (v >> 24) as f32;
            }
        }
        std::hint::black_box((acc, f));
        samples.push(start.elapsed().as_secs_f64() * 1e9);
    }
    crate::stats::median(&samples)
}

/// The CPU model named in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// The commit checked out in the current directory or an ancestor, read
/// from `.git` without running git; `"unknown"` outside a git work tree.
pub fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let Some(git) = cwd.ancestors().map(|d| d.join(".git")).find(|g| g.join("HEAD").is_file()) else {
        return "unknown".into();
    };
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD").map(|h| h.trim().to_string()) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let cpu = CpuTimes::now().expect("/proc/self/stat");
        assert!(cpu.user_s >= 0.0 && cpu.sys_s >= 0.0);
        assert!(nproc() >= 1);
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
