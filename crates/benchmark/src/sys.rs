//! The two OS facilities the benchmark needs and `std` does not offer:
//! CPU affinity and resource usage of the process tree. Linux only.

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// Pins the whole process (threads spawned later inherit the mask) to
/// `cpus`. Returns `false`, leaving the process unpinned, when the
/// kernel refuses — e.g. a listed CPU does not exist on this host.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = 0u64;
    for &c in cpus {
        if c >= 64 {
            return false;
        }
        mask |= 1 << c;
    }
    // SAFETY: `mask` is a live 8-byte bitmap and the size passed is its
    // size; pid 0 addresses the calling thread, which at the point of
    // the call (first thing in a workload child) is the only thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Resource usage of this process plus every child it has waited for.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeUsage {
    /// user + system CPU time, milliseconds
    pub cpu_ms: f64,
    /// voluntary context switches
    pub vol_ctx_switches: f64,
    /// peak resident set: this process's high-water mark plus the
    /// largest waited-for child's (the tree never holds more than one
    /// child at a time), MiB
    pub peak_rss_mb: f64,
}

fn rusage(who: i32) -> [i64; 18] {
    let mut raw = [0i64; 18];
    // SAFETY: `struct rusage` on 64-bit Linux is two timevals and
    // fourteen longs — eighteen 8-byte words — and `raw` is exactly that.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/CHILDREN");
    raw
}

/// Cumulative usage since process start; subtract two readings for a
/// window's CPU time and context switches (the peak is not a delta).
pub fn tree_usage() -> TreeUsage {
    let mut total = TreeUsage::default();
    for who in [RUSAGE_SELF, RUSAGE_CHILDREN] {
        let r = rusage(who);
        // words 0..4: ru_utime {sec, usec}, ru_stime {sec, usec};
        // word 4: ru_maxrss in KiB; word 16: ru_nvcsw
        total.cpu_ms += (r[0] + r[2]) as f64 * 1e3 + (r[1] + r[3]) as f64 / 1e3;
        total.peak_rss_mb += r[4] as f64 / 1024.0;
        total.vol_ctx_switches += r[16] as f64;
    }
    total
}

/// Live thread count of this process (`Threads:` in `/proc/self/status`).
pub fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// First `model name` and the `flags` line of `/proc/cpuinfo`.
pub fn cpu_model_and_flags() -> (String, String) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
    };
    (field("model name"), field("flags"))
}
