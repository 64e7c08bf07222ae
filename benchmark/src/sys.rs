//! The two OS services the protocol needs and `std` does not offer:
//! thread affinity and process CPU time. Declared by hand (`std` already
//! links the C library) so the package keeps path dependencies only.

/// Widest affinity mask handled: 1024 CPUs, the kernel's default limit.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
}

/// The CPUs the calling thread may run on, ascending. Empty when the
/// platform cannot tell (then nothing is pinned).
fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc =
            unsafe { ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    {
        Vec::new()
    }
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to `cpus`. Returns whether the kernel accepted the mask.
fn set_affinity(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        for &cpu in cpus {
            if cpu < MASK_WORDS * 64 {
                mask[cpu / 64] |= 1 << (cpu % 64);
            }
        }
        if mask.iter().all(|w| *w == 0) {
            return false;
        }
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed; pid 0 names the calling thread.
        unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// CPU time consumed by all threads of this process so far, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = ffi::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec`-layout struct.
        let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
    #[cfg(not(target_os = "linux"))]
    {
        panic!("process CPU time needs Linux: cluster_cpu_ns_per_event cannot be measured here")
    }
}

/// Thread placement of the protocol: one feeder thread on the first
/// allowed CPU, engine shard threads on the others, cluster node threads
/// anywhere. With fewer than two CPUs nothing is pinned.
#[derive(Debug, Clone)]
pub struct Placement {
    all: Vec<usize>,
}

impl Placement {
    /// Reads the allowed CPUs and pins the calling thread as the feeder.
    pub fn pin_feeder() -> Self {
        let this = Self {
            all: allowed_cpus(),
        };
        this.feeder();
        this
    }

    /// Number of CPUs the process may use.
    pub fn cpus(&self) -> usize {
        self.all.len().max(1)
    }

    /// Pins the calling thread to the feeder CPU.
    pub fn feeder(&self) {
        if self.all.len() >= 2 {
            set_affinity(&self.all[..1]);
        }
    }

    /// Runs `spawn` with the mask set to the non-feeder CPUs, so threads
    /// it starts inherit them, then pins the caller back to the feeder CPU.
    pub fn spawn_on_others<T>(&self, spawn: impl FnOnce() -> T) -> T {
        if self.all.len() >= 2 {
            set_affinity(&self.all[1..]);
        }
        let out = spawn();
        self.feeder();
        out
    }

    /// Runs `run` with every CPU allowed (cluster node threads float),
    /// then pins the caller back to the feeder CPU.
    pub fn on_all<T>(&self, run: impl FnOnce() -> T) -> T {
        if self.all.len() >= 2 {
            set_affinity(&self.all);
        }
        let out = run();
        self.feeder();
        out
    }
}
