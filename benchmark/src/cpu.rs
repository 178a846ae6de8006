//! Process CPU time. Unlike wall time it leaves out time the host's
//! hypervisor takes from this machine's virtual CPUs (steal, which the
//! kernel accounts separately) and time other processes hold the CPU,
//! so per-job CPU figures stay steady on a shared host.
//!
//! CPU time still moves with how fast the host runs this process: on a
//! shared machine the same work took up to 30% more CPU time in some
//! minutes than in others, every job at once. [`Speed`] measures that by
//! running a fixed reference kernel, written in this package and so
//! independent of the program under test, through every run; the
//! bounded CPU figures are reported at the reference speed.

use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process.
pub fn process() -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the duration of the
    // call, and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// The reference kernel's CPU time on the reference host (a 2-vCPU
/// virtual machine, in its fast phases), milliseconds: the speed the
/// normalised CPU figures are expressed at.
pub const REFERENCE_KERNEL_MS: f64 = 3.3;

/// How often a timed loop runs the reference kernel.
const KERNEL_EVERY: Duration = Duration::from_millis(250);

/// Samples of the reference kernel through one run.
#[derive(Default)]
pub struct Speed {
    samples_ms: Vec<f64>,
    last: Option<Instant>,
    spent_wall: Duration,
    spent_cpu: Duration,
    // the kernel's storage, kept between samples: a kernel that
    // allocated afresh at times set by the clock would change the heap
    // layout the program sees, and with it the peak resident memory
    map: HashMap<u64, u32>,
    heap: BinaryHeap<u64>,
    keys: Vec<u64>,
}

impl Speed {
    /// Fixed work of the kind the solvers do (hashing, a binary heap, a
    /// sort); returns its CPU time.
    fn reference_kernel(&mut self) -> Duration {
        let c0 = process();
        self.map.clear();
        self.heap.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..40_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.map.insert(x % 20_000, i);
            self.heap.push(x >> 40);
            if i % 3 == 0 {
                self.heap.pop();
            }
        }
        self.keys.clear();
        self.keys.extend(self.map.keys());
        self.keys.sort_unstable();
        std::hint::black_box((&self.keys, &self.heap));
        process() - c0
    }

    /// Runs the kernel now.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let c0 = process();
        let kernel = self.reference_kernel();
        self.samples_ms.push(kernel.as_secs_f64() * 1e3);
        self.spent_cpu += process() - c0;
        self.last = Some(Instant::now());
        self.spent_wall += t0.elapsed();
    }

    /// Runs the kernel if a quarter second has passed since it last ran.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= KERNEL_EVERY) {
            self.sample();
        }
    }

    /// Wall and CPU time spent in the kernel so far, to be taken out of
    /// the timed phase.
    pub fn spent(&self) -> (Duration, Duration) {
        (self.spent_wall, self.spent_cpu)
    }

    /// Median CPU time of the kernel in this run, milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms).expect("the kernel ran at least once")
    }

    /// The factor that takes this run's CPU times to the reference
    /// speed: below 1 when the host ran this process slower than the
    /// reference.
    pub fn factor(&self) -> f64 {
        REFERENCE_KERNEL_MS / self.kernel_ms()
    }

    /// Number of kernel samples.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = super::process();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::process() > before, "{x}");
    }

    #[test]
    fn speed_factor_is_reference_over_median_kernel_time() {
        let mut speed = super::Speed::default();
        for _ in 0..3 {
            speed.sample();
        }
        assert_eq!(speed.samples(), 3);
        let factor = speed.factor();
        assert!(factor.is_finite() && factor > 0.0);
        assert!((factor * speed.kernel_ms() - super::REFERENCE_KERNEL_MS).abs() < 1e-9);
        // a tick right after a sample does not run the kernel again
        speed.tick();
        assert_eq!(speed.samples(), 3);
    }
}
