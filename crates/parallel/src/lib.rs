//! Deterministic scoped-thread work splitting.
//!
//! Several hot loops in this workspace (per-weight power and timing
//! characterization in `powerpruning`, the GEMM kernels in `nn`) used to
//! copy-paste the same `available_parallelism` + `chunks_mut` +
//! `thread::scope` pattern. This crate centralizes it with one
//! guarantee: **results are a function of the row index only**, never of
//! the chunk geometry, so any thread count produces identical output.
//!
//! The unit of work is a *row*: `row_len` consecutive elements of the
//! mutable slice. The worker closure receives the *global* row index and
//! the row slice; per-thread scratch state (a simulator, reusable
//! buffers) is created once per worker thread by `init` and reused
//! across that thread's rows. The calling thread is one of the workers:
//! it processes the first chunk of rows itself rather than blocking
//! while spawned threads do all the work, so a fan-out over `n` threads
//! spawns `n - 1`.
//!
//! # Examples
//!
//! ```
//! let mut squares = vec![0u64; 10];
//! parallel::par_rows_mut(&mut squares, 1, || (), |(), i, row| {
//!     row[0] = (i * i) as u64;
//! });
//! assert_eq!(squares[7], 49);
//! ```

#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// The number of worker threads used by default: the machine's available
/// parallelism (1 if it cannot be determined).
#[must_use]
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `data` into rows of `row_len` elements and processes every row
/// with `work`, using up to [`max_threads`] scoped threads.
///
/// `init` creates per-thread scratch state; `work(state, row_index,
/// row)` receives the global row index, so its output must not depend on
/// which thread executes it.
///
/// # Panics
///
/// Panics if `row_len` is zero or does not divide `data.len()`.
pub fn par_rows_mut<T, S, I, W>(data: &mut [T], row_len: usize, init: I, work: W)
where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize, &mut [T]) + Sync,
{
    par_rows_mut_with_threads(max_threads(), data, row_len, init, work);
}

/// [`par_rows_mut`] with an explicit thread count — the seam the
/// determinism tests use to prove results are chunk-geometry-free.
///
/// The calling thread counts as one of the `threads`: it processes the
/// first chunk itself while `threads - 1` scoped workers take the rest.
///
/// # Panics
///
/// Panics if `row_len` is zero or does not divide `data.len()`.
pub fn par_rows_mut_with_threads<T, S, I, W>(
    threads: usize,
    data: &mut [T],
    row_len: usize,
    init: I,
    work: W,
) where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "data length {} is not a multiple of row_len {row_len}",
        data.len()
    );
    static JOBS: std::sync::LazyLock<obs::metrics::Counter> =
        std::sync::LazyLock::new(|| obs::metrics::counter("parallel_jobs_total"));
    JOBS.inc();
    let rows = data.len() / row_len;
    let threads = threads.max(1).min(rows.max(1));
    if threads <= 1 {
        let mut state = init();
        for (i, row) in data.chunks_mut(row_len).enumerate() {
            work(&mut state, i, row);
        }
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let run_chunk = |chunk_idx: usize, chunk: &mut [T]| {
        let mut state = init();
        for (off, row) in chunk.chunks_mut(row_len).enumerate() {
            work(&mut state, chunk_idx * rows_per + off, row);
        }
    };
    std::thread::scope(|scope| {
        let mut chunks = data.chunks_mut(rows_per * row_len).enumerate();
        let first = chunks.next();
        for (chunk_idx, chunk) in chunks {
            let run_chunk = &run_chunk;
            scope.spawn(move || run_chunk(chunk_idx, chunk));
        }
        // The caller works the first chunk instead of waiting idle.
        if let Some((_, chunk)) = first {
            run_chunk(0, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_visited_once() {
        let mut hits = vec![u32::MAX; 97];
        par_rows_mut(
            &mut hits,
            1,
            || (),
            |(), i, row| {
                row[0] = i as u32;
            },
        );
        for (i, &h) in hits.iter().enumerate() {
            assert_eq!(h, i as u32);
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let run = |threads: usize| {
            let mut out = vec![0u64; 41];
            par_rows_mut_with_threads(
                threads,
                &mut out,
                1,
                || 0u64,
                |state, i, row| {
                    // State depends on visit order within a thread; the
                    // row result must only use the row index.
                    *state += 1;
                    row[0] = (i as u64).wrapping_mul(0x9e37_79b9).rotate_left(7);
                },
            );
            out
        };
        let one = run(1);
        for threads in [2, 3, 5, 8, 64] {
            assert_eq!(run(threads), one, "thread count {threads} changed results");
        }
    }

    #[test]
    fn the_caller_runs_the_first_chunk() {
        let caller = std::thread::current().id();
        for threads in [2, 3] {
            let mut ran_on = vec![None; 12];
            par_rows_mut_with_threads(
                threads,
                &mut ran_on,
                1,
                || (),
                |(), _, row| {
                    row[0] = Some(std::thread::current().id());
                },
            );
            assert_eq!(ran_on[0], Some(caller), "{threads} threads: row 0");
            assert_ne!(ran_on[11], Some(caller), "{threads} threads: last row");
        }
    }

    #[test]
    fn multi_element_rows_stay_contiguous() {
        let mut data = vec![0usize; 6 * 4];
        par_rows_mut(
            &mut data,
            4,
            || (),
            |(), i, row| {
                assert_eq!(row.len(), 4);
                row.fill(i);
            },
        );
        for (i, chunk) in data.chunks(4).enumerate() {
            assert!(chunk.iter().all(|&v| v == i));
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut data: Vec<u8> = Vec::new();
        par_rows_mut(&mut data, 3, || (), |(), _, _| panic!("no rows expected"));
    }

    #[test]
    #[should_panic(expected = "multiple of row_len")]
    fn rejects_ragged_rows() {
        let mut data = vec![0u8; 7];
        par_rows_mut(&mut data, 3, || (), |(), _, _| {});
    }
}
