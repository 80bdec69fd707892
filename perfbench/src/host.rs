//! Host-side clocks the benchmark reads from outside the simulator: the
//! calling thread's scheduler statistics and context switches (Linux
//! `/proc/thread-self`), process CPU time (`getrusage`), peak resident
//! memory, and the host fingerprint stamped on every result.

use std::os::raw::{c_int, c_long};

/// The calling thread's scheduler view, from `/proc/thread-self`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadClock {
    /// Nanoseconds on a CPU (`schedstat` field 1).
    pub oncpu_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU (`schedstat` field 2).
    pub runq_ns: u64,
    /// Voluntary context switches: each is a block, e.g. a handoff that slept.
    pub vol_switches: u64,
}

impl ThreadClock {
    /// Reads the calling thread's clocks.
    ///
    /// # Panics
    ///
    /// Panics when `/proc/thread-self` is missing or unreadable: the
    /// benchmark needs Linux `/proc`.
    pub fn now() -> ThreadClock {
        // The kernel folds a running thread's CPU time into `schedstat`
        // only at scheduling events; yielding makes the count current.
        std::thread::yield_now();
        let sched = std::fs::read_to_string("/proc/thread-self/schedstat")
            .expect("the benchmark needs Linux /proc/thread-self/schedstat");
        let mut fields = sched.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
        let oncpu_ns = fields.next().unwrap_or(0);
        let runq_ns = fields.next().unwrap_or(0);
        let status = std::fs::read_to_string("/proc/thread-self/status")
            .expect("the benchmark needs Linux /proc/thread-self/status");
        ThreadClock {
            oncpu_ns,
            runq_ns,
            vol_switches: status_field(&status, "voluntary_ctxt_switches"),
        }
    }

    /// The change from `earlier` to `self`.
    pub fn since(self, earlier: ThreadClock) -> ThreadClock {
        ThreadClock {
            oncpu_ns: self.oncpu_ns.saturating_sub(earlier.oncpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            vol_switches: self.vol_switches.saturating_sub(earlier.vol_switches),
        }
    }
}

/// Reads a numeric `Name:\tvalue` line of a `/proc/.../status` file.
fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux: two timevals then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Process CPU time: every thread, live or exited, user and kernel mode.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcCpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds (futex and clone calls, page faults).
    pub sys_s: f64,
}

impl ProcCpu {
    /// Reads the process's CPU time so far.
    ///
    /// # Panics
    ///
    /// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF`.
    pub fn now() -> ProcCpu {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `ru` is a live, writable `struct rusage` laid out as Linux
        // declares it (`#[repr(C)]`, two `timeval`s then fourteen `long`s),
        // and `getrusage` writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        ProcCpu { user_s: secs(&ru.utime), sys_s: secs(&ru.stime) }
    }

    /// The change from `earlier` to `self`.
    pub fn since(self, earlier: ProcCpu) -> ProcCpu {
        ProcCpu { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }

    /// User plus kernel seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark needs Linux /proc/self/status");
    status_field(&status, "VmHWM") as f64 / 1024.0
}

/// The host a result was measured on: CPUs, CPU model, compiler and
/// source revision, rendered as one JSON object.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]);
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        json_escape(&cpu),
        json_escape(&rustc),
        json_escape(&rev)
    )
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run or fails (a source tree without `.git` has no revision). Git is kept
/// from searching above the working directory.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes `"` and `\` and drops control characters, for a JSON string.
pub fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (t0, c0) = (ThreadClock::now(), ProcCpu::now());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let (dt, dc) = (ThreadClock::now().since(t0), ProcCpu::now().since(c0));
        assert!(dt.oncpu_ns > 0, "schedstat on-CPU time must advance");
        assert!(dc.total_s() > 0.0, "process CPU time must advance");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn status_lines_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), 2048);
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), 7);
        assert_eq!(status_field(s, "missing"), 0);
    }
}
