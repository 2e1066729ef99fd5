//! Host-speed normalisation of the timed operations, and the host-speed
//! diagnostic every run prints.
//!
//! On a shared host the speed at which this process runs event-loop
//! code changes with the neighbours, by up to 1.8× for minutes at a
//! time, while on-CPU time stays equal to wall time (steal stays near
//! 2 %). A median over the rounds of one run cannot remove a slow phase
//! that lasts the whole run, and the Figure 4 legs are hit hardest: in
//! five runs minutes apart their raw wall-time medians spread by 0.24 to
//! 0.38 of the median, beyond any bound a gate can use. The sweeps and
//! service timings follow the same phases less steeply (quartile spreads
//! up to 0.26 over ten runs). So every end-to-end timing is normalised:
//! around each timed operation the benchmark runs a frozen probe of its
//! own and rescales the wall time to the probe's reference speed:
//!
//! ```text
//! normalised = wall × reference time / probe time around the leg
//! ```
//!
//! Two probes, each about 30 ms on the reference host: an event loop
//! (binary heap of timers, xorshift draws, exponential delays, branchy
//! dispatch) and an allocation churn (small boxes allocated and freed
//! through a ring). Over hundreds of interleaved legs and probes on the
//! reference host, the host's phases slowed the direct engine like the
//! event loop and the SAN engine like the allocation churn: normalising
//! each by the other probe left twice the spread. So each leg names its
//! probe. The sweeps and service timings tracked the event loop best.
//!
//! The probe only measures the host if nothing of the crates runs beside
//! it. Every timed operation has returned before its second probe (the
//! sweeps join their worker threads, and the service's write phase ends
//! when the scheduler reports its last job published), so no thread of
//! the process but the probing one may be runnable while a probe runs;
//! [`check_alone`] fails an operation when another was. Threads blocked
//! for work, like the idle workers and accept loop of the service part's
//! server, take no CPU and are allowed.

use crate::report::{median, Report};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A frozen piece of work whose time tracks the host's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    EventLoop,
    AllocChurn,
}

impl Probe {
    /// Seconds one run takes on the reference host (Intel Xeon, 2 vCPUs)
    /// when no neighbour slows it.
    fn reference_s(self) -> f64 {
        match self {
            Probe::EventLoop => 0.030,
            Probe::AllocChurn => 0.030,
        }
    }

    /// One run on the calling thread; returns its wall time.
    fn run(self) -> f64 {
        match self {
            Probe::EventLoop => event_loop(),
            Probe::AllocChurn => alloc_churn(),
        }
    }
}

/// The event-loop probe: 400,000 events over 48 timers.
fn event_loop() -> f64 {
    const EVENTS: u32 = 400_000;
    const TIMERS: u32 = 48;
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut uniform = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut heap = BinaryHeap::with_capacity(TIMERS as usize);
    for i in 0..TIMERS {
        heap.push(Reverse(((uniform() * 1e6) as u64, i)));
    }
    let mut phase = [0u8; TIMERS as usize];
    let mut acc = 0.0f64;
    for _ in 0..EVENTS {
        let Some(Reverse((t, i))) = heap.pop() else {
            break;
        };
        let p = &mut phase[i as usize];
        let mean = match *p % 4 {
            0 => 600.0,
            1 => 30.0 + acc.fract(),
            2 => 3600.0,
            _ => 5.0,
        };
        *p = p.wrapping_add(1 + (t & 1) as u8);
        let delay = -(1.0 - uniform()).ln() * mean;
        acc += delay * 1e-6;
        heap.push(Reverse((t + 1 + delay as u64, i)));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The allocation-churn probe: 2,700,000 boxes of 32 bytes, allocated
/// and freed through a ring of 1,024 live ones.
fn alloc_churn() -> f64 {
    const ALLOCS: u32 = 2_700_000;
    const LIVE: usize = 1024;
    let start = Instant::now();
    let mut ring: Vec<Box<[u32; 8]>> = Vec::with_capacity(LIVE);
    let mut acc = 0u32;
    for i in 0..ALLOCS {
        let b = Box::new([i; 8]);
        acc = acc.wrapping_add(b[3]);
        if ring.len() < LIVE {
            ring.push(b);
        } else {
            ring[i as usize % LIVE] = b;
        }
    }
    black_box(&ring);
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Runnable threads of this process (state `R` in
/// `/proc/self/task/*/stat`), the calling thread included.
fn runnable_threads() -> Option<usize> {
    let mut n = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(task.ok()?.path().join("stat")) else {
            continue;
        };
        let state = stat.rsplit_once(')')?.1.trim_start().chars().next()?;
        n += usize::from(state == 'R');
    }
    Some(n)
}

/// One probe run once the calling thread is the only runnable one (a
/// finishing worker can take a moment to block or exit). Returns the
/// probe time and whether the probe ran alone.
fn probe_alone(probe: Probe) -> (f64, bool) {
    let deadline = Instant::now() + Duration::from_millis(200);
    while runnable_threads() != Some(1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let secs = probe.run();
    (secs, runnable_threads() == Some(1))
}

/// The host's speed relative to the reference host by `probe` — the
/// reference time over the median of five probe runs: 1 on the
/// reference host in its quiet state, below 1 when the host is slow.
/// Printed with every run as a diagnostic.
pub fn speed(probe: Probe) -> f64 {
    let runs: Vec<f64> = (0..5).map(|_| probe.run()).collect();
    probe.reference_s() / median(&runs)
}

/// A timed operation: its wall time and the host-speed factor measured
/// around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub wall: f64,
    /// Reference time / probe time: below 1 when the host is slow.
    pub speed: f64,
    /// Both probes ran with no other thread in the process.
    pub alone: bool,
}

impl Timing {
    /// The wall time rescaled to the reference host speed.
    pub fn normalised(&self) -> f64 {
        self.wall * self.speed
    }
}

/// Runs `f` between two runs of `probe` on the calling thread; the
/// timing's wall time is all of `f`.
pub fn timed<T>(probe: Probe, f: impl FnOnce() -> T) -> (T, Timing) {
    let (before, alone_before) = probe_alone(probe);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let (after, alone_after) = probe_alone(probe);
    let timing = Timing {
        wall,
        speed: probe.reference_s() / ((before + after) / 2.0),
        alone: alone_before && alone_after,
    };
    (out, timing)
}

/// Reports the median normalised time of `ts` as metric `name`
/// (seconds); see [`checked_median`].
pub fn report_time(report: &mut Report, name: &'static str, ts: &[Timing]) {
    if !ts.is_empty() {
        let m = checked_median(report, name, ts);
        report.metric(name, m, "s");
    }
}

/// The median normalised time of `ts` (seconds, not empty). Notes the
/// raw wall-time median and the median speed factor beside it, and
/// checks the probes ran alone (see [`check_alone`]).
pub fn checked_median(report: &mut Report, name: &str, ts: &[Timing]) -> f64 {
    let of = |f: fn(&Timing) -> f64| median(&ts.iter().map(f).collect::<Vec<_>>());
    let (wall, speed) = (of(|t| t.wall), of(|t| t.speed));
    report.notes.push(format!(
        "{name}: raw wall median {wall:.4} s, host speed {speed:.3}, {} samples",
        ts.len()
    ));
    check_alone(report, name, ts);
    of(Timing::normalised)
}

/// Counts one operation that fails unless every probe of `ts` ran with
/// no other thread of the process runnable.
pub fn check_alone(report: &mut Report, name: &str, ts: &[Timing]) {
    let alone = ts.iter().filter(|t| t.alone).count();
    let ok = report.check("hostspeed.probe_alone", alone == ts.len(), || {
        format!(
            "{name}: {} of {} probes ran beside other threads",
            ts.len() - alone,
            ts.len()
        )
    });
    report.op(ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_scales_with_the_probe() {
        let t = Timing {
            wall: 2.0,
            speed: 0.5,
            alone: true,
        };
        assert_eq!(t.normalised(), 1.0);
        for probe in [Probe::EventLoop, Probe::AllocChurn] {
            let s = speed(probe);
            assert!(s > 0.0 && s.is_finite(), "{probe:?}: {s}");
        }
    }

    #[test]
    fn a_probe_beside_another_thread_fails_the_report() {
        let mut report = Report::default();
        let (x, t) = timed(Probe::EventLoop, || 3);
        assert_eq!(x, 3);
        assert!(t.wall >= 0.0 && t.speed > 0.0);
        let beside = Timing { alone: false, ..t };
        report_time(&mut report, "x_s", &[t, t]);
        if t.alone {
            assert!(report.correct(), "{:?}", report.check_lines());
        }
        report_time(&mut report, "y_s", &[t, beside]);
        assert!(!report.correct());
        assert_eq!(report.metrics.len(), 2);
    }
}
