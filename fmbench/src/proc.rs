//! Process accounting: the daemon's CPU and peak RSS from `/proc`, and
//! the CLI children's from `getrusage(RUSAGE_CHILDREN)`.

use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU of a live process, all threads.
pub fn cpu_of(pid: u32) -> Result<Duration, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed stat".to_string())
    };
    Ok(Duration::from_secs_f64((ticks(11)? + ticks(12)?) / USER_HZ))
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn hwm_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM".to_string())
}

/// Resource use of every waited-for child so far.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    pub cpu: Duration,
    /// Largest child's peak RSS, in KiB.
    pub max_rss_kib: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

pub fn children() -> Result<ChildUsage, String> {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable, correctly sized and aligned `struct
    // rusage` for 64-bit Linux (two timevals of two i64, then 14 longs),
    // and getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc != 0 {
        return Err("getrusage failed".into());
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(ChildUsage {
        cpu: Duration::from_secs_f64(secs(&u.utime) + secs(&u.stime)),
        max_rss_kib: u.maxrss.max(0) as u64,
    })
}
