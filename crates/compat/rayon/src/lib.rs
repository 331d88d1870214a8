//! Offline stand-in for `rayon`.
//!
//! Implements the small slice of the rayon API this workspace uses —
//! `par_iter()` followed by `.map(...).collect()`, plus `map_init` for
//! per-worker scratch state — with real data parallelism over
//! `std::thread::scope`.  Items are split into one contiguous chunk per
//! available core; chunk results are concatenated in order, so collected
//! output is identical to the sequential equivalent.
//!
//! The worker count honours (in priority order) the process-wide cap set by
//! [`set_thread_cap`], the `RAYON_NUM_THREADS` environment variable, and the
//! machine's available parallelism.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// The rayon-style prelude: import the parallel-iterator extension traits.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Process-wide worker cap; 0 = no cap set.
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Cap the number of worker threads every later parallel call may use.
/// `0` removes the cap.  (Real rayon configures this through a thread-pool
/// builder; the stand-in exposes the cap directly.)
pub fn set_thread_cap(threads: usize) {
    THREAD_CAP.store(threads, Ordering::Relaxed);
}

/// Number of worker threads to fan out over: the [`set_thread_cap`] cap if
/// set, else `RAYON_NUM_THREADS` if set and valid, else the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    let cap = THREAD_CAP.load(Ordering::Relaxed);
    if cap > 0 {
        return cap;
    }
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map over a slice.
pub fn par_map_slice<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Order-preserving parallel map over a slice with per-worker state: `init`
/// runs once per worker thread and the resulting value is threaded through
/// every call that worker performs — rayon's `map_init`.  A serial fallback
/// (one worker) calls `init` exactly once.
pub fn par_map_slice_init<'a, T, S, R, I, F>(items: &'a [T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let f = &f;
        let init = &init;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    let mut state = init();
                    c.iter().map(|item| f(&mut state, item)).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// `par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Sync + 'a;
    /// Create a parallel iterator over references.
    fn par_iter(&'a self) -> ParSliceIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { items: self }
    }
}

impl<'a, T: Sync + 'a, const N: usize> IntoParallelRefIterator<'a> for [T; N] {
    type Item = T;
    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { items: self }
    }
}

/// Parallel iterator over `&[T]`.
pub struct ParSliceIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSliceIter<'a, T> {
    /// Map each item through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParSliceMap {
            items: self.items,
            f,
        }
    }

    /// Map each item through `f` in parallel with per-worker state created by
    /// `init` (rayon's `map_init`): one `S` per worker thread, reused across
    /// every item that worker processes.
    pub fn map_init<S, R, I, F>(self, init: I, f: F) -> ParSliceMapInit<'a, T, I, F>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
    {
        ParSliceMapInit {
            items: self.items,
            init,
            f,
        }
    }
}

/// Pending parallel map over a slice.
pub struct ParSliceMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParSliceMap<'a, T, F> {
    /// Execute the map and collect the results in input order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
        C: FromIterator<R>,
    {
        par_map_slice(self.items, self.f).into_iter().collect()
    }
}

/// Pending parallel `map_init` over a slice.
pub struct ParSliceMapInit<'a, T, I, F> {
    items: &'a [T],
    init: I,
    f: F,
}

impl<'a, T: Sync, I, F> ParSliceMapInit<'a, T, I, F> {
    /// Execute the map and collect the results in input order.
    pub fn collect<C, S, R>(self) -> C
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
        C: FromIterator<R>,
    {
        par_map_slice_init(self.items, self.init, self.f)
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let doubled: Vec<u32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn map_init_preserves_order_and_reuses_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let v: Vec<u32> = (0..500).collect();
        let inits = AtomicUsize::new(0);
        let out: Vec<u32> = v
            .par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u32 // per-worker accumulator, proves state is writable
                },
                |acc, x| {
                    *acc = acc.wrapping_add(*x);
                    x * 3
                },
            )
            .collect();
        assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<_>>());
        let n = inits.load(Ordering::Relaxed);
        // One init per worker; far fewer than one per item.  (The exact
        // worker count may be perturbed by the sibling thread-cap test.)
        assert!(n >= 1, "init must run at least once");
        assert!(n < 500, "init must not run per item: {n}");
    }

    #[test]
    fn thread_cap_limits_workers() {
        crate::set_thread_cap(1);
        assert_eq!(crate::current_num_threads(), 1);
        crate::set_thread_cap(3);
        assert_eq!(crate::current_num_threads(), 3);
        crate::set_thread_cap(0);
        assert!(crate::current_num_threads() >= 1);
    }
}
