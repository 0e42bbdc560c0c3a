//! Job timing in reference seconds, corrected for the host's speed.
//!
//! The benchmark runs on small virtual machines of a shared host whose
//! speed drifts by ±20 % over minutes, independently of the program: the
//! wall time of ten runs of one workload spread by up to 25 % between
//! their quartiles, and tracked the kernel below with a correlation of
//! 0.84–0.94. To measure
//! the program rather than the host, a [`Clock`] runs a fixed
//! calibration kernel at every boundary between the parts of a job
//! (after set-up, after each simulation run or experiment) and scales
//! each part's wall and CPU time by [`REFERENCE_S`] over the mean of the
//! kernel's times at the part's two ends. The result is the part's time
//! on a host on which the kernel takes exactly `REFERENCE_S`. The kernel
//! itself is never counted in a part; the raw times are kept alongside.

use std::time::Instant;

use crate::probe;
use crate::stats::median;
use crate::trace::{now, Tracer};

/// The kernel's time on the reference host: about its median on the
/// 2-vCPU virtual machine the bounds were measured on.
pub const REFERENCE_S: f64 = 0.007;

/// Steps of one kernel round.
const KERNEL_STEPS: u32 = 2_400_000;

/// Rounds per calibration. The kernel's time is the median round, so a
/// round the host interrupts does not count.
const ROUNDS: usize = 5;

/// Entries of the kernel's table (256 KiB: it stays in a core's L2).
const TABLE_LEN: usize = 1 << 16;

/// The calibration kernel's time: the median of [`ROUNDS`] rounds.
fn kernel(table: &mut [u32]) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS).map(|_| round(table)).collect();
    median(&rounds)
}

/// One kernel round: a fixed xorshift walk that reads and writes a
/// table, integer work like the simulator's inner loops.
fn round(table: &mut [u32]) -> f64 {
    let start = now();
    let mask = TABLE_LEN - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_add(x as u32) ^ table[i.wrapping_mul(7) & mask];
    }
    std::hint::black_box(&*table);
    start.elapsed().as_secs_f64()
}

/// Seconds the kernel takes on the slowest of the threads running it at
/// once, one thread per table.
fn calibrate(tables: &mut [Vec<u32>]) -> f64 {
    if let [table] = tables {
        return kernel(table);
    }
    std::thread::scope(|scope| {
        let running: Vec<_> = tables
            .iter_mut()
            .map(|table| scope.spawn(move || kernel(table)))
            .collect();
        running
            .into_iter()
            .map(|t| t.join().unwrap_or(0.0))
            .fold(0.0, f64::max)
    })
}

/// Times of one part of a job, or of a whole job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds, all threads; `None` when the host cannot
    /// measure them.
    pub cpu_s: Option<f64>,
    /// Wall seconds scaled to the reference host.
    pub ref_wall_s: f64,
    /// CPU seconds scaled to the reference host.
    pub ref_cpu_s: Option<f64>,
}

impl Times {
    fn add(&mut self, part: Times) {
        self.wall_s += part.wall_s;
        self.ref_wall_s += part.ref_wall_s;
        self.cpu_s = self.cpu_s.zip(part.cpu_s).map(|(a, b)| a + b);
        self.ref_cpu_s = self.ref_cpu_s.zip(part.ref_cpu_s).map(|(a, b)| a + b);
    }
}

/// Splits jobs into parts at calibration marks.
pub struct Clock {
    tables: Vec<Vec<u32>>,
    part_start: Instant,
    part_cpu: Option<f64>,
    kernel_s: f64,
    job: Times,
    kernel_samples: Vec<f64>,
}

impl Clock {
    /// A clock for a workload of `threads` threads, calibrated once.
    pub fn new(threads: usize) -> Clock {
        let mut tables = vec![vec![0u32; TABLE_LEN]; threads.max(1)];
        // The first run pays for faulting the tables in.
        calibrate(&mut tables);
        let kernel_s = calibrate(&mut tables);
        Clock {
            tables,
            part_start: now(),
            part_cpu: probe::cpu_seconds(),
            kernel_s,
            job: Times::default(),
            kernel_samples: vec![kernel_s],
        }
    }

    /// Starts a job, or a set-up timed on its own: its first part starts
    /// now.
    pub fn begin_job(&mut self) {
        self.job = Times {
            cpu_s: Some(0.0),
            ref_cpu_s: Some(0.0),
            ..Times::default()
        };
        self.part_start = now();
        self.part_cpu = probe::cpu_seconds();
    }

    /// Ends the current part, calibrates, and starts the next part.
    /// Returns the part that ended.
    pub fn mark(&mut self, tr: &mut Tracer) -> Times {
        let wall_s = self.part_start.elapsed().as_secs_f64();
        let cpu_s = self.part_cpu.zip(probe::cpu_seconds()).map(|(a, b)| b - a);
        let (kernel_s, _) = tr.span("bench.calibrate", |_| calibrate(&mut self.tables));
        let scale = REFERENCE_S / ((self.kernel_s + kernel_s) / 2.0);
        let part = Times {
            wall_s,
            cpu_s,
            ref_wall_s: wall_s * scale,
            ref_cpu_s: cpu_s.map(|c| c * scale),
        };
        self.job.add(part);
        self.kernel_s = kernel_s;
        self.kernel_samples.push(kernel_s);
        self.part_start = now();
        self.part_cpu = probe::cpu_seconds();
        part
    }

    /// The parts of the current job so far.
    pub fn job(&self) -> Times {
        self.job
    }

    /// Every kernel time measured, in seconds.
    pub fn kernel_samples(&self) -> &[f64] {
        &self.kernel_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_add_up_to_the_job_and_scale_by_the_kernel() {
        let mut tr = Tracer::new(true);
        let mut clock = Clock::new(2);
        clock.begin_job();
        let a = clock.mark(&mut tr);
        let b = clock.mark(&mut tr);
        let job = clock.job();
        assert!((job.wall_s - a.wall_s - b.wall_s).abs() < 1e-12);
        assert!((job.ref_wall_s - a.ref_wall_s - b.ref_wall_s).abs() < 1e-12);
        // The second part is bounded by two calibrations; its scale is
        // the reference over their mean.
        let k = clock.kernel_samples();
        let scale = REFERENCE_S / ((k[1] + k[2]) / 2.0);
        assert!((b.ref_wall_s - b.wall_s * scale).abs() < 1e-12);
        assert_eq!(k.len(), 3);
        assert!(k.iter().all(|&s| s > 0.0 && s.is_finite()));
        // The kernel is outside every part.
        assert!(b.wall_s < k[1]);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "bench.calibrate"));
    }
}
