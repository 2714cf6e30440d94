//! The [`parallel`] runtime as seen by users of `mesa`.
//!
//! [`parallel_map`] and [`parallel_map_with`] fan work out over one
//! process-wide pool and return results in input order, so a deterministic
//! function gives the same output at every thread count. The pool is sized
//! once per process: `MESA_THREADS` wins, then a [`set_threads`] call made
//! before the first fan-out, then the host's available parallelism.
//! [`with_thread_cap`] caps the concurrency of fan-outs in a scope, and
//! [`effective_threads`] reports the concurrency in force. [`with_deadline`]
//! installs a cooperative [`Deadline`] that pool workers observe at
//! [`checkpoint`]s.

pub use parallel::{
    checkpoint, current_deadline, effective_threads, parallel_map, parallel_map_with, set_threads,
    with_deadline, with_thread_cap, Cancelled, Deadline, FanOut,
};
