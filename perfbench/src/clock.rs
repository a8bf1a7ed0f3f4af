//! Task and set-up costs as wall time and as process CPU time.
//!
//! The end-to-end timings are process CPU time: the time the benchmark's
//! threads actually ran, in user and kernel mode. On a shared host the
//! wall time of the same work also holds the time other tenants held the
//! processor, which moves with their load and not with the program. Waits
//! that are not CPU time (an fsync's device wait) are left out; the wall
//! time is printed beside every CPU timing.

use std::ops::{AddAssign, Sub};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has used so far, in ns.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The cost of a piece of work: wall time and process CPU time, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

impl Cost {
    pub fn wall_ms(self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    pub fn cpu_ms(self) -> f64 {
        self.cpu_ns as f64 / 1e6
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, o: Cost) {
        self.wall_ns += o.wall_ns;
        self.cpu_ns += o.cpu_ns;
    }
}

impl Sub for Cost {
    type Output = Cost;

    fn sub(self, o: Cost) -> Cost {
        Cost {
            wall_ns: self.wall_ns.saturating_sub(o.wall_ns),
            cpu_ns: self.cpu_ns.saturating_sub(o.cpu_ns),
        }
    }
}

/// Started at a point in time; reads the cost since then.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_ns: cpu_ns(),
        }
    }

    pub fn elapsed(&self) -> Cost {
        let cpu = cpu_ns();
        Cost {
            wall_ns: self.wall.elapsed().as_nanos() as u64,
            cpu_ns: cpu.saturating_sub(self.cpu_ns),
        }
    }
}

/// Time the hypervisor ran other work on this machine's processors while
/// they had work of their own, summed over processors, in seconds
/// (`/proc/stat`, `steal`, in USER_HZ = 100 ticks per second). It is not
/// CPU time of the process; printed to show how busy the host was.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}
