//! A counting global allocator for measuring solver-path allocations.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and counts every
//! allocation (calls and bytes) **per thread**. It is *opt-in*: a binary or
//! test installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: parfem_trace::alloc::CountingAlloc =
//!     parfem_trace::alloc::CountingAlloc;
//! ```
//!
//! and the rest of the stack can then read what a region of code allocated
//! on the thread that ran it with [`measure`] (or a pair of [`stats`]
//! snapshots). Because the counters are thread-local, sibling threads — the
//! other tests of a `cargo test` binary, the other ranks of a solve — never
//! land in each other's numbers, and since ranks are threads every rank gets
//! its own allocation attribution for free. When the allocator is *not*
//! installed, [`is_counting`] stays `false` and the solve drivers skip
//! emitting `alloc_bytes` / `alloc_count` fields, so traces never carry
//! misleading zeros.
//!
//! Deallocations are deliberately not subtracted from those counters: they
//! measure allocator *traffic* (how often the hot path hits `malloc`), which
//! is the quantity the zero-allocation Krylov workspace is designed to
//! eliminate. What a thread *holds* is tracked next to them:
//! [`live_bytes`] (allocated minus freed on this thread) and its high-water
//! mark [`peak_bytes`] — a rank's memory footprint, as long as the rank
//! frees what it allocates (message payloads cross threads, a few hundred
//! bytes either way). [`minor_faults`] counts what the allocator cannot:
//! the pages the thread touched for the first time.
// The unsafe code of the crate: forwarding `GlobalAlloc` to `System`
// around two thread-local counter bumps, and the `getrusage` call of
// `minor_faults`. Kept to this module; see lib.rs.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    // Const-initialised `Cell`s of a `Copy` type: no lazy initialisation and
    // no destructor, so touching them from inside the allocator can neither
    // allocate nor run after thread-local teardown has freed them.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    // Signed: a thread that frees what another allocated dips below zero.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}
// A statistic that publishes no other data: `Relaxed` suffices.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A `#[global_allocator]` that counts allocations per thread.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System`, which upholds the `GlobalAlloc`
// contract; the additional counter updates have no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink is new allocator traffic of the new size; old and
        // new block may coexist while it moves, and the peak says so.
        note_alloc(new_size);
        note_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[inline]
fn note_alloc(bytes: usize) {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    // `try_with`: an allocation during thread teardown is simply not
    // counted rather than a panic inside the allocator.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    if let Ok(live) = LIVE_BYTES.try_with(|c| {
        c.set(c.get() + bytes as i64);
        c.get()
    }) {
        let _ = PEAK_BYTES.try_with(|c| c.set(c.get().max(live)));
    }
}

#[inline]
fn note_free(bytes: usize) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - bytes as i64));
}

/// Cumulative allocation counters of one thread at one instant; subtract
/// two snapshots to measure a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Number of allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Counters accumulated since the (earlier) snapshot `start`.
    #[must_use]
    pub fn since(self, start: AllocStats) -> AllocStats {
        AllocStats {
            count: self.count.saturating_sub(start.count),
            bytes: self.bytes.saturating_sub(start.bytes),
        }
    }

    /// Element-wise sum (e.g. the host thread's share plus every rank's).
    #[must_use]
    pub fn merged(self, other: AllocStats) -> AllocStats {
        AllocStats {
            count: self.count + other.count,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// The calling thread's cumulative counters (zeros unless
/// [`CountingAlloc`] is installed).
pub fn stats() -> AllocStats {
    AllocStats {
        count: ALLOC_CALLS.with(Cell::get),
        bytes: ALLOC_BYTES.with(Cell::get),
    }
}

/// Bytes the calling thread holds: allocated minus freed **on this thread**
/// since it started (zero unless [`CountingAlloc`] is installed).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.with(Cell::get).max(0) as u64
}

/// The high-water mark of [`live_bytes`] on the calling thread.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.with(Cell::get).max(0) as u64
}

/// Minor page faults the calling thread has taken since it started: first
/// touches of fresh pages, which no allocation counter sees (Linux
/// `getrusage(RUSAGE_THREAD)`; `None` elsewhere or when the call fails).
/// Unlike the allocation counters it needs no [`CountingAlloc`].
pub fn minor_faults() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
        // of which `ru_minflt` is the fifth.
        extern "C" {
            fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
        }
        const RUSAGE_THREAD: i32 = 1;
        let mut usage = [0i64; 18];
        // SAFETY: `usage` is a writable buffer of `struct rusage`'s size.
        let ok = unsafe { getrusage(RUSAGE_THREAD, &mut usage) } == 0;
        ok.then(|| usage[8] as u64)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Runs `f` and returns its value with what it allocated **on this
/// thread** — immune to whatever other threads allocate meanwhile.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let start = stats();
    let value = f();
    (value, stats().since(start))
}

/// Whether a [`CountingAlloc`] is installed in this process (detected on its
/// first allocation, which in practice precedes any solve).
pub fn is_counting() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_and_saturates() {
        let a = AllocStats {
            count: 10,
            bytes: 100,
        };
        let b = AllocStats {
            count: 4,
            bytes: 40,
        };
        assert_eq!(
            a.since(b),
            AllocStats {
                count: 6,
                bytes: 60
            }
        );
        assert_eq!(b.since(a), AllocStats::default());
    }

    #[test]
    fn measure_returns_the_closure_value_and_a_delta() {
        let (v, d) = measure(|| vec![1u8; 256].len());
        assert_eq!(v, 256);
        // Not installed in this test binary: nothing is counted.
        assert_eq!(d, AllocStats::default());
    }

    #[test]
    fn stats_without_installation_stay_zero_or_monotone() {
        // This test binary does not install the allocator, so counters can
        // only be zero; if another harness installs it, they are monotone.
        let s1 = stats();
        let _v = vec![0u8; 1024];
        let s2 = stats();
        assert!(s2.count >= s1.count);
        assert!(s2.bytes >= s1.bytes);
    }
}
