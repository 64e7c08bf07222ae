//! Per-stage allocation accounting, active when the `prof-alloc` cargo
//! feature is on *and* [`CountingAlloc`] is installed as the global
//! allocator (binaries opt in; libraries never install one). The
//! workspace's only `static`s and its only `thread_local!` live in this
//! file: an allocator cannot be handed a context.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use super::{AllocLine, Stage, STAGE_COUNT};

std::thread_local! {
    /// Stage active on this thread, as `Stage as u8`; `u8::MAX` = none.
    /// Const-initialized so the first read cannot recurse into the
    /// counting allocator.
    static ACTIVE_STAGE: std::cell::Cell<u8> = const { std::cell::Cell::new(u8::MAX) };
}

/// Makes `tag` the stage allocations on this thread are counted against
/// and returns the previous one.
pub(super) fn set_active_stage(tag: u8) -> u8 {
    ACTIVE_STAGE.try_with(|c| c.replace(tag)).unwrap_or(u8::MAX)
}

/// Tally slots: one per stage plus a final slot for allocations made
/// outside any profiled scope.
const SLOTS: usize = STAGE_COUNT + 1;

static ALLOCS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

fn record(size: usize) {
    let tag = ACTIVE_STAGE.try_with(|c| c.get()).unwrap_or(u8::MAX);
    let slot = (tag as usize).min(STAGE_COUNT);
    ALLOCS[slot].fetch_add(1, Ordering::Relaxed);
    BYTES[slot].fetch_add(size as u64, Ordering::Relaxed);
}

/// A [`System`]-backed global allocator counting allocations and
/// bytes against the stage active on the allocating thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the
// accounting is two relaxed atomic adds with no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative totals of every slot that saw an allocation (stage order,
/// then the untagged slot).
pub(super) fn lines() -> Vec<AllocLine> {
    let names = Stage::ALL.iter().map(|s| s.name()).chain(["untagged"]);
    let totals = names.zip(ALLOCS.iter().zip(&BYTES));
    totals
        .map(|(stage, (allocs, bytes))| AllocLine {
            stage,
            allocs: allocs.load(Ordering::Relaxed),
            bytes: bytes.load(Ordering::Relaxed),
        })
        .filter(|line| line.allocs > 0)
        .collect()
}
