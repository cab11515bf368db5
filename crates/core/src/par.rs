//! Independent jobs side by side on scoped threads.
//!
//! Every caller hands [`map`] jobs that are pure functions of their
//! inputs (seeded engine runs, experiment cells), so the width only sets
//! how many run at once: the results, returned in input order, are the
//! same at any width.

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// The number of jobs [`map`] should run at once on this host: the
/// available parallelism, or 1 where it cannot be read.
pub fn width() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `jobs` at most `width` at a time and returns their results in
/// input order. The caller works as one of the workers; the others are
/// scoped threads. Workers pull the next job from a shared queue, so
/// long and short jobs balance. At width 1 (or one job) everything runs
/// on the caller's thread. A panicking job re-raises its panic on the
/// caller once every worker has stopped.
pub fn map<T, F>(width: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let width = width.clamp(1, n.max(1));
    if width == 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // PANIC: a job runs outside the lock, so nothing can panic
            // while holding it and poison it.
            let Some((i, job)) = queue.lock().expect("job queue poisoned").next() else {
                break done;
            };
            done.push((i, job()));
        }
    };
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        let mut batches = vec![work()];
        for helper in helpers {
            match helper.join() {
                Ok(batch) => batches.push(batch),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, v) in batches.into_iter().flatten() {
            results[i] = Some(v);
        }
    });
    // PANIC: every index was enumerated once and every worker finished.
    results.into_iter().map(|r| r.expect("job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<Box<dyn FnOnce() -> usize + Send>> {
        (0..n).map(|i| Box::new(move || i * i) as _).collect()
    }

    #[test]
    fn map_preserves_order_at_every_width() {
        let want: Vec<usize> = (0..32).map(|i| i * i).collect();
        for width in [1, 2, 3, 8, 64] {
            assert_eq!(map(width, squares(32)), want, "width {width}");
        }
    }

    #[test]
    fn map_empty() {
        assert!(map(4, squares(0)).is_empty());
        assert!(map(1, squares(0)).is_empty());
    }

    #[test]
    fn map_width_zero_runs_on_the_caller() {
        assert_eq!(map(0, squares(3)), vec![0, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn map_reraises_a_job_panic_on_the_caller() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 5, "job {i} failed");
                    i
                }) as _
            })
            .collect();
        map(3, jobs);
    }

    #[test]
    fn width_is_at_least_one() {
        assert!(width() >= 1);
    }
}
