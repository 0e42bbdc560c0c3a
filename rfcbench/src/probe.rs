//! Host probes: process CPU time and peak resident memory.
//!
//! Both read Linux `/proc`; elsewhere they return `None` and the report
//! prints `unavailable` instead of a number.

/// `/proc` reports times in clock ticks of `USER_HZ`, which Linux fixes
/// at 100 on every architecture it exposes to user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process, summed over all of its
/// threads, including threads that have already exited.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    // `utime` and `stime` are fields 14 and 15, i.e. the 12th and 13th
    // after the name.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}
