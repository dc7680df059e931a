//! The workspace's one parallel job runner.
//!
//! [`par_map`] applies a function to every item of a slice on scoped
//! worker threads and returns the results in item order. Workers claim
//! the next unclaimed item from a shared atomic index, so one slow item
//! (a 5 050-link topology next to 101-link rings) never leaves the other
//! workers idle the way equal static chunks would. Results are merged by
//! item index, so the output never depends on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Computes `job(item)` for every item of `items` on up to `threads`
/// scoped workers (clamped to `1..=items.len()`) and returns the results
/// in item order. With one worker everything runs on the calling thread.
///
/// A panicking job re-raises its panic on the calling thread.
pub fn par_map<I, T, F>(items: &[I], threads: usize, job: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The index publishes no other data: results reach
                        // the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, job(item)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..20).collect();
        assert_eq!(
            par_map(&items, 4, |&i| i * i),
            (0..20).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_map_single_thread() {
        assert_eq!(par_map(&[1u32, 2], 1, |&x| x), vec![1, 2]);
    }

    #[test]
    fn par_map_more_threads_than_jobs() {
        assert_eq!(par_map(&[3u32, 1, 2], 16, |&x| x * 10), vec![30, 10, 20]);
    }

    #[test]
    fn par_map_zero_threads_runs_on_caller() {
        let caller = std::thread::current().id();
        let out = par_map(&[5u32, 6, 7], 0, |&x| (x, std::thread::current().id()));
        assert_eq!(
            out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert!(out.iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn par_map_empty_input() {
        let none: [u32; 0] = [];
        assert!(par_map(&none, 4, |&x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn par_map_propagates_job_panics() {
        let items: Vec<u32> = (0..8).collect();
        par_map(&items, 2, |&x| {
            assert!(x != 3, "job {x} failed");
            x
        });
    }
}
