//! Handing freed heap memory back to the operating system.
//!
//! glibc's malloc gives each thread that allocates under contention a heap
//! (arena) of its own, and `free` returns pages to the system only from the
//! top of a heap. A burst of work on the pool therefore leaves every arena
//! it touched as large as its high-water mark for as long as one live chunk
//! sits near that top: the freed pages below stay resident until a later
//! allocation in the same arena reuses them. Where that chunk lands depends
//! on which thread ran which item, so the resident set left behind by the
//! same work differs from one run to the next.

/// Asks the allocator to return every free heap page, in every arena, to
/// the operating system. Live allocations are untouched; a later
/// allocation that reuses a returned page pays a page fault for it.
///
/// Calls `malloc_trim(0)` on glibc targets and does nothing elsewhere.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and is thread-safe: it
        // locks each arena while it releases that arena's free pages, which
        // no live allocation uses.
        unsafe {
            malloc_trim(0);
        }
    }
}
