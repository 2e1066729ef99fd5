//! What every part of a workload shares: the run context, seed
//! derivation, the measured-round loop, and timing helpers.

use ckpt_core::QueueKind;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups of each part per run; a part reports their median.
pub const SETUPS: usize = 5;

/// One workload run as the command line asked for it, or one part of it.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds (set-up excluded).
    pub seconds: f64,
    /// Event-queue backend of every simulation the workload runs.
    pub queue: QueueKind,
    /// Traced pass: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes instead of the committed ones.
    pub tiny: bool,
    /// Scratch directory for stores and span files, inside the checkout.
    pub work_dir: PathBuf,
    /// Host parallelism; the load never uses more busy threads.
    pub nproc: usize,
}

impl Ctx {
    /// A derived seed for input `tag` of this run.
    pub fn derive(&self, tag: u64) -> u64 {
        derive(self.seed, tag)
    }

    /// The context of a part run on its own with `share` of the budget.
    pub fn part(&self, share: f64) -> Ctx {
        Ctx {
            seconds: self.seconds * share,
            ..self.clone()
        }
    }

    /// Rounds a workload must complete even when the budget is spent.
    pub fn min_rounds(&self) -> usize {
        if self.tiny {
            1
        } else {
            3
        }
    }
}

/// SplitMix64 of `seed ^ tag·φ`: distinct, well-mixed seeds per input.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `round(0)`, `round(1)`, … until another round of the length of
/// the last one would end past `seconds`, but at least `min_rounds`
/// times. Returns the number of rounds run.
pub fn repeat(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let ((), last) = timed(|| round(n));
        n += 1;
        if n >= min_rounds && start.elapsed().as_secs_f64() + last > seconds {
            return n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }

    #[test]
    fn repeat_honours_the_minimum_and_the_budget() {
        assert_eq!(repeat(0.0, 3, |_| {}), 3);
        let mut seen = Vec::new();
        let n = repeat(0.05, 1, |i| {
            seen.push(i);
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        assert!((2..=5).contains(&n), "{n} rounds of 10 ms in 50 ms");
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }
}
