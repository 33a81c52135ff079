//! A counting global allocator for traced runs.
//!
//! Only the `perfbench-traced` binary installs [`CountingAlloc`]; the
//! end-to-end binary runs on the system allocator and pays nothing.
//! Counting is per thread and off by default: a traced replay turns it
//! on with [`charge`] for the code it attributes, so allocations made
//! by other threads (the live shards) or by the benchmark's own
//! bookkeeping are never counted. Each allocation goes to the
//! [`Charge`] active on its thread when it happens, which is how the
//! handler/engine split is made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the current thread's allocations are charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Not counted.
    Off,
    /// The simulator and everything around the protocol handlers.
    Engine,
    /// Inside a protocol handler call.
    Handler,
}

thread_local! {
    static CHARGE: Cell<Charge> = const { Cell::new(Charge::Off) };
    static ENGINE: Cell<u64> = const { Cell::new(0) };
    static HANDLER: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation count.
#[derive(Debug)]
pub struct CountingAlloc;

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let charge = CHARGE.try_with(Cell::get).unwrap_or(Charge::Off);
    let counter = match charge {
        Charge::Off => return,
        Charge::Engine => &ENGINE,
        Charge::Handler => &HANDLER,
    };
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// extra work touches `const`-initialized thread-locals holding `Copy`
// values, which neither allocate nor register destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` through this same allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract,
        // and `ptr` came from `System` through this same allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Charges this thread's allocations to `to`; returns the previous
/// charge so nested spans can restore it.
pub fn charge(to: Charge) -> Charge {
    CHARGE.with(|c| c.replace(to))
}

/// This thread's counts so far: `(engine, handler)` allocations.
pub fn counts() -> (u64, u64) {
    (ENGINE.with(Cell::get), HANDLER.with(Cell::get))
}
