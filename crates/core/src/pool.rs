//! The one thread fan-out of the analysis stack: an ordered map over
//! independent items, for drivers that run *several sessions* at once.
//!
//! An [`crate::AnalysisSession`] belongs to one thread (it is neither
//! `Send` nor `Sync`), so nothing inside a program's analysis is ever
//! split across threads. What can run side by side is whole programs,
//! each in a session of its own: `padfa corpus --jobs N` maps the
//! corpus through [`par_map_jobs`], and `padfa serve --workers N` has
//! its own worker pool. The lanes share nothing the analysis writes
//! except what is shared between sessions anyway (an attached
//! `Arc<Store>`, a metrics registry); each lane's thread has a `Var`
//! table of its own, which every session resets to its program's
//! numbering.
//!
//! Results come back in item order, so a caller that folds them sees
//! exactly what a sequential loop would have produced.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` on up to `jobs` threads (the caller is one of
/// them), returning results in item order. Items are claimed one at a
/// time from a shared cursor, so uneven costs balance themselves. One
/// job, or a list of fewer than two items, runs inline on the caller.
/// A panic in `f` is re-raised on the caller once the lanes have
/// stopped; callers that must survive one catch it inside `f`.
pub fn par_map_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let lanes = jobs.min(items.len());
    if lanes < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let lane = || {
        let mut got = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return got };
            got.push((i, f(i, item)));
        }
    };
    let mut all = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
        let mut all = lane();
        for handle in spawned {
            match handle.join() {
                Ok(got) => all.extend(got),
                Err(payload) => resume_unwind(payload),
            }
        }
        all
    });
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let got = par_map_jobs(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(got, (0..200).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn one_job_runs_inline() {
        let caller = std::thread::current().id();
        let items = [10, 20, 30];
        let got = par_map_jobs(1, &items, |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(got, vec![11, 21, 31]);
    }
}
