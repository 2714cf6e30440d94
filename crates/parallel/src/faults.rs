//! Deterministic fault-injection registry (test/bench only).
//!
//! Compiled only under the `fault-injection` cargo feature. Pipeline
//! stages declare *named injection points* with the
//! [`fault_point!`](crate::fault_point) macro; tests arm a point with
//! [`arm`], choosing what fires ([`FaultKind`]) and on which hit it fires
//! (`nth`, 1-based). Everything is keyed by plain strings so the registry
//! stays dependency-free and usable from any crate in the workspace.
//!
//! Determinism: a fault fires on exactly the `nth` call of [`hit`] for its
//! point after arming (counted under one lock across threads) and fires
//! exactly once — later hits are still counted but never re-fire. Tests
//! that arm faults must serialise on the
//! registry (the robustness suite runs them under a shared lock) and call
//! [`reset`] between cases.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Every named injection point in the workspace.
///
/// This is the documented source of truth for the string keys: `mesa-lint`
/// enforces that this list, the `fault_point!("...")` call sites in source,
/// and the robustness suite's `FAULT_POINTS` coverage list stay identical,
/// so a renamed or added point cannot silently drift out of test coverage.
pub const NAMED_POINTS: &[&str] = &[
    // Session fill paths: a report fill, the preparation every report fill
    // and `Session::prepare` run, and an extraction fill.
    "mesa.session.fill_report",
    "mesa.session.fill_prepared",
    "mesa.session.fill_extraction",
    // Hash-join build in mesa::problem.
    "mesa.join",
    // BFS frontier expansion in kg::extraction.
    "kg.extract.expand",
    // Contingency accumulation in infotheory::kernel.
    "infotheory.kernel.accumulate",
];

/// What an armed injection point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a `"fault-injection: <point>"` message (suppressed from
    /// stderr by the pool's quiet panic hook).
    Panic,
    /// Sleep for the given duration, then continue normally.
    Latency(Duration),
    /// Simulate an allocation failure: panics with an OOM-shaped
    /// `"fault-injection: allocation of … failed at <point>"` message.
    /// (Real OOM aborts; the simulated flavour unwinds so recovery paths
    /// are testable.)
    AllocFail,
}

struct Plan {
    kind: FaultKind,
    /// Fires when the hit counter reaches this value (1-based).
    nth: u64,
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<String, Plan>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Plan>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Plan>> {
    // A fault that fired by panicking unwound through this lock; the map
    // itself is always left consistent, so poisoning is ignorable.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `point` to fire `kind` on its `nth` hit (1-based; `1` = next hit).
/// Re-arming an already-armed point replaces the plan and resets its hit
/// counter.
pub fn arm(point: &str, kind: FaultKind, nth: u64) {
    assert!(nth >= 1, "nth is 1-based");
    lock().insert(point.to_string(), Plan { kind, nth, hits: 0 });
}

/// Disarms every point and clears all hit counters.
pub fn reset() {
    lock().clear();
}

/// Hits recorded for `point` since it was last armed (0 if unarmed).
pub fn hits(point: &str) -> u64 {
    lock().get(point).map_or(0, |p| p.hits)
}

/// Records a hit at `point`; fires the armed fault if this is the `nth`
/// hit. Called via [`fault_point!`](crate::fault_point), never directly.
pub fn hit(point: &str) {
    let fired = {
        let mut map = lock();
        match map.get_mut(point) {
            None => return,
            Some(plan) => {
                plan.hits += 1;
                if plan.hits == plan.nth {
                    Some(plan.kind)
                } else {
                    None
                }
            }
        }
    };
    match fired {
        None => {}
        Some(FaultKind::Latency(d)) => std::thread::sleep(d),
        Some(FaultKind::Panic) => {
            crate::deadline::install_quiet_hook();
            panic!("fault-injection: {point}");
        }
        Some(FaultKind::AllocFail) => {
            crate::deadline::install_quiet_hook();
            panic!("fault-injection: allocation of 18446744073709551615 bytes failed at {point}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; keep each test on distinct points so
    // they can run concurrently.

    #[test]
    fn unarmed_points_are_free() {
        hit("test.unarmed");
        assert_eq!(hits("test.unarmed"), 0);
    }

    #[test]
    fn fires_on_nth_hit_exactly_once() {
        arm("test.nth", FaultKind::Panic, 3);
        hit("test.nth");
        hit("test.nth");
        let err = std::panic::catch_unwind(|| hit("test.nth")).expect_err("3rd hit fires");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert_eq!(msg, "fault-injection: test.nth");
        // Counter keeps advancing past nth without re-firing.
        hit("test.nth");
        assert_eq!(hits("test.nth"), 4);
        arm("test.nth", FaultKind::Latency(Duration::ZERO), 1);
        assert_eq!(hits("test.nth"), 0, "re-arming resets the counter");
        hit("test.nth");
    }

    #[test]
    fn latency_faults_do_not_unwind() {
        arm(
            "test.latency",
            FaultKind::Latency(Duration::from_millis(1)),
            1,
        );
        let t0 = std::time::Instant::now();
        hit("test.latency");
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn alloc_fail_is_oom_shaped() {
        arm("test.alloc", FaultKind::AllocFail, 1);
        let err = std::panic::catch_unwind(|| hit("test.alloc")).expect_err("fires");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("allocation of"), "got {msg:?}");
        assert!(msg.contains("failed at test.alloc"), "got {msg:?}");
    }
}
