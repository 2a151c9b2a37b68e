//! The per-query resource governor: cooperative cancellation, wall-clock
//! deadlines and byte-accounted memory budgets.
//!
//! The paper's testbed "takes precautions against system crashes" and runs
//! efficiency tests under "only 20 MB of memory" — which is only honest if
//! a runaway query can actually be *stopped* and a hungry query actually
//! *bounded*. A [`Governor`] is a cheap, cloneable handle shared between
//! the thread driving a query and whoever supervises it (the testbed
//! runner, a future server): the supervisor fires [`Governor::cancel`] or
//! arms a deadline/budget up front, and the executing code calls
//! [`Governor::check`] at row boundaries and page acquires, and
//! [`Governor::try_reserve`]/[`Governor::release`] around large
//! allocations.
//!
//! ## Check placement
//!
//! Checks are cooperative. The two structural choke points every engine
//! passes through are:
//!
//! * **page fetches** — the buffer pool checks the thread's installed
//!   governor at the top of every fetch ([`Governor::check_current`]), which
//!   covers all storage-touching engines without threading a handle
//!   through every call signature, and
//! * **row boundaries** — `Operator::next` in the physical layer and the
//!   binding loops of the interpreter engines check explicitly, which
//!   covers pool-hit-only stretches and the in-memory M1 engine.
//!
//! The deadline clock is consulted only every [`DEADLINE_STRIDE`] checks:
//! `Instant::now()` costs tens of nanoseconds, a relaxed atomic load
//! costs ~1 ns, and the warm point-get path runs at a few hundred
//! nanoseconds per operation — the stride keeps governor overhead within
//! noise there.
//!
//! ## Thread-local installation
//!
//! A query executes on one thread. [`Governor::install`] pushes the
//! handle onto a thread-local stack (RAII-popped by [`GovernorScope`]), so
//! deeply buried code — the buffer pool, the external sorter — can reach
//! the active governor via [`Governor::current`] without signature
//! changes. Nesting is allowed; the innermost installation wins.

use crate::error::StorageError;
use crate::Result;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline-clock stride: `Instant::now()` is consulted on the first check
/// and every this-many checks after (see module docs).
pub const DEADLINE_STRIDE: u64 = 32;

#[derive(Debug)]
struct GovInner {
    /// Cancellation token (set by the supervisor or a tripped fault).
    cancel: AtomicBool,
    /// Set once the deadline clock has been observed past the deadline, so
    /// every later check fails fast with the *deadline* error (not the
    /// generic cancellation).
    deadline_hit: AtomicBool,
    /// Absolute wall-clock deadline.
    deadline: Option<Instant>,
    /// Byte budget for accounted allocations; `None` = unbounded.
    mem_budget: Option<usize>,
    /// Currently reserved bytes.
    mem_used: AtomicUsize,
    /// High-water mark of reserved bytes.
    mem_peak: AtomicUsize,
    /// Cooperative checks performed.
    checks: AtomicU64,
    /// Spills caused by budget pressure (external-sort run generation).
    spill_count: AtomicU64,
    /// Bytes written by those spills.
    spill_bytes: AtomicU64,
    /// Fault injection: fire the cancellation token at the Nth check
    /// (0 = disabled). The cancellation-torture analogue of
    /// [`crate::fault::FaultState`]'s kill-after-N-writes.
    trip_cancel_after: AtomicU64,
    /// Fault injection: panic at the Nth check (0 = disabled) — simulates
    /// a crashing engine for the testbed's panic-isolation tests.
    trip_panic_after: AtomicU64,
}

/// A per-query resource governor handle. Cheap to clone; all clones share
/// the same token, deadline, budget and counters. The default handle
/// ([`Governor::none`]) is inert: every check and reservation is a no-op.
#[derive(Clone, Default)]
pub struct Governor {
    inner: Option<Arc<GovInner>>,
}

/// A point-in-time copy of a governor's counters, attached to query
/// metrics and rendered on the EXPLAIN ANALYZE "governor:" line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorSnapshot {
    /// False for the inert [`Governor::none`] handle.
    pub active: bool,
    /// Cooperative checks performed.
    pub checks: u64,
    /// High-water mark of accounted bytes.
    pub peak_bytes: usize,
    /// Spills forced by memory-budget pressure.
    pub spill_count: u64,
    /// Bytes spilled under that pressure.
    pub spill_bytes: u64,
    /// True if the cancellation token fired (including via deadline).
    pub cancelled: bool,
}

impl GovernorSnapshot {
    /// One-line rendering for EXPLAIN ANALYZE (after the "governor: "
    /// prefix).
    pub fn render(&self) -> String {
        if !self.active {
            return "off".to_string();
        }
        let mut out = format!(
            "{} checks, peak {} bytes accounted, {} spills ({} bytes)",
            self.checks, self.peak_bytes, self.spill_count, self.spill_bytes
        );
        if self.cancelled {
            out.push_str(", CANCELLED");
        }
        out
    }
}

thread_local! {
    /// Stack of installed governors (innermost last). A stack — not a
    /// slot — so nested evaluations (the testbed diffing an engine against
    /// the reference inside one thread) restore correctly.
    static CURRENT: RefCell<Vec<Governor>> = const { RefCell::new(Vec::new()) };
}

impl Governor {
    /// The inert governor: never cancels, never limits, accounts nothing.
    pub fn none() -> Governor {
        Governor { inner: None }
    }

    /// An active governor with an optional wall-clock timeout (deadline =
    /// now + `timeout`) and an optional memory budget in bytes. Both
    /// `None` still yields an *active* governor — a pure cancellation
    /// token with accounting.
    pub fn with_limits(timeout: Option<Duration>, mem_budget: Option<usize>) -> Governor {
        Governor {
            inner: Some(Arc::new(GovInner {
                cancel: AtomicBool::new(false),
                deadline_hit: AtomicBool::new(false),
                deadline: timeout.map(|t| Instant::now() + t),
                mem_budget,
                mem_used: AtomicUsize::new(0),
                mem_peak: AtomicUsize::new(0),
                checks: AtomicU64::new(0),
                spill_count: AtomicU64::new(0),
                spill_bytes: AtomicU64::new(0),
                trip_cancel_after: AtomicU64::new(0),
                trip_panic_after: AtomicU64::new(0),
            })),
        }
    }

    /// An active governor with no limits: a cancellation token plus
    /// accounting.
    pub fn unlimited() -> Governor {
        Governor::with_limits(None, None)
    }

    /// True unless this is the inert [`Governor::none`] handle.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Fires the cancellation token: the executing thread fails its next
    /// [`Governor::check`] with [`StorageError::Cancelled`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancel.store(true, Ordering::Relaxed);
        }
    }

    /// True once the token has fired (by [`Governor::cancel`], a tripped
    /// fault, or a deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancel.load(Ordering::Relaxed))
    }

    /// The cooperative check: counts, runs armed fault injections, then
    /// fails with [`StorageError::DeadlineExceeded`] past the deadline or
    /// [`StorageError::Cancelled`] once the token has fired.
    pub fn check(&self) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let n = inner.checks.fetch_add(1, Ordering::Relaxed) + 1;
        let trip = inner.trip_cancel_after.load(Ordering::Relaxed);
        if trip != 0 && n >= trip {
            inner.cancel.store(true, Ordering::Relaxed);
        }
        let trip = inner.trip_panic_after.load(Ordering::Relaxed);
        if trip != 0 && n >= trip {
            panic!("governor fault injection: scripted panic at check {n}");
        }
        if inner.deadline_hit.load(Ordering::Relaxed) {
            return Err(StorageError::DeadlineExceeded);
        }
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(StorageError::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            if (n == 1 || n % DEADLINE_STRIDE == 0) && Instant::now() >= deadline {
                // Latch both flags: later checks (and other clones) fail
                // fast without consulting the clock again.
                inner.deadline_hit.store(true, Ordering::Relaxed);
                inner.cancel.store(true, Ordering::Relaxed);
                return Err(StorageError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Tries to account `bytes` against the budget. Returns false (with
    /// nothing reserved) if it would exceed the budget.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        let new = inner.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(budget) = inner.mem_budget {
            if new > budget {
                inner.mem_used.fetch_sub(bytes, Ordering::Relaxed);
                return false;
            }
        }
        inner.mem_peak.fetch_max(new, Ordering::Relaxed);
        true
    }

    /// [`Governor::try_reserve`], failing with
    /// [`StorageError::MemoryExceeded`].
    pub fn reserve(&self, bytes: usize) -> Result<()> {
        if self.try_reserve(bytes) {
            Ok(())
        } else {
            Err(StorageError::MemoryExceeded {
                used: self.mem_used() + bytes,
                budget: self.mem_budget().unwrap_or(0),
            })
        }
    }

    /// Returns previously reserved bytes to the budget.
    pub fn release(&self, bytes: usize) {
        if let Some(inner) = &self.inner {
            inner.mem_used.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Currently accounted bytes.
    pub fn mem_used(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.mem_used.load(Ordering::Relaxed))
    }

    /// The configured memory budget, if any.
    pub fn mem_budget(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|i| i.mem_budget)
    }

    /// Records a budget-pressure spill of `bytes` (external-sort runs).
    pub fn note_spill(&self, bytes: u64) {
        if let Some(inner) = &self.inner {
            inner.spill_count.fetch_add(1, Ordering::Relaxed);
            inner.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Fault injection: fire the cancellation token at the `n`-th check
    /// (1-based; 0 disables). Deterministic mid-query cancellation for the
    /// torture sweep and property tests.
    pub fn trip_cancel_after_checks(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.trip_cancel_after.store(n, Ordering::Relaxed);
        }
    }

    /// Fault injection: panic at the `n`-th check (1-based; 0 disables) —
    /// simulates a crashing engine for panic-isolation tests.
    pub fn trip_panic_after_checks(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.trip_panic_after.store(n, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> GovernorSnapshot {
        match &self.inner {
            None => GovernorSnapshot::default(),
            Some(inner) => GovernorSnapshot {
                active: true,
                checks: inner.checks.load(Ordering::Relaxed),
                peak_bytes: inner.mem_peak.load(Ordering::Relaxed),
                spill_count: inner.spill_count.load(Ordering::Relaxed),
                spill_bytes: inner.spill_bytes.load(Ordering::Relaxed),
                cancelled: inner.cancel.load(Ordering::Relaxed),
            },
        }
    }

    /// Installs this governor as the thread's current one for the lifetime
    /// of the returned scope (RAII; nesting restores the previous one).
    pub fn install(&self) -> GovernorScope {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        GovernorScope { _priv: () }
    }

    /// The innermost governor installed on this thread ([`Governor::none`]
    /// when nothing is installed).
    pub fn current() -> Governor {
        CURRENT.with(|c| c.borrow().last().cloned().unwrap_or_default())
    }

    /// [`Governor::check`] on the thread's current governor — the buffer
    /// pool's page-fetch hook.
    pub fn check_current() -> Result<()> {
        CURRENT.with(|c| match c.borrow().last() {
            Some(gov) => gov.check(),
            None => Ok(()),
        })
    }
}

impl std::fmt::Debug for Governor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Governor(none)"),
            Some(_) => f
                .debug_struct("Governor")
                .field("cancelled", &self.is_cancelled())
                .field("mem_used", &self.mem_used())
                .field("mem_budget", &self.mem_budget())
                .finish(),
        }
    }
}

/// RAII guard returned by [`Governor::install`]; pops the governor off the
/// thread's stack on drop (including during unwinding).
pub struct GovernorScope {
    _priv: (),
}

impl Drop for GovernorScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// A byte reservation against a governor's budget that releases itself on
/// drop — including when an operator is torn down mid-query by an error or
/// a cancellation. Buffering operators (external sort, block joins, the M1
/// DOM materialization) hold one of these for their accounted memory.
#[derive(Debug, Default)]
pub struct MemReservation {
    gov: Governor,
    bytes: usize,
}

impl MemReservation {
    /// An empty reservation against `gov`.
    pub fn empty(gov: &Governor) -> MemReservation {
        MemReservation {
            gov: gov.clone(),
            bytes: 0,
        }
    }

    /// Reserves `bytes` up front, failing with
    /// [`StorageError::MemoryExceeded`] if the budget cannot cover them.
    pub fn new(gov: &Governor, bytes: usize) -> Result<MemReservation> {
        gov.reserve(bytes)?;
        Ok(MemReservation {
            gov: gov.clone(),
            bytes,
        })
    }

    /// Tries to grow the reservation by `bytes`; false if over budget
    /// (the reservation is unchanged).
    pub fn grow(&mut self, bytes: usize) -> bool {
        if self.gov.try_reserve(bytes) {
            self.bytes += bytes;
            true
        } else {
            false
        }
    }

    /// Returns every reserved byte to the budget (a spill emptied the
    /// buffer this reservation covers).
    pub fn release_all(&mut self) {
        self.gov.release(self.bytes);
        self.bytes = 0;
    }

    /// Currently reserved bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        self.gov.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_governor_is_free() {
        let gov = Governor::none();
        assert!(!gov.is_active());
        assert!(gov.check().is_ok());
        assert!(gov.try_reserve(usize::MAX / 2));
        gov.release(usize::MAX / 2);
        gov.cancel();
        assert!(!gov.is_cancelled());
        assert_eq!(gov.snapshot(), GovernorSnapshot::default());
    }

    #[test]
    fn cancellation_token_fires_across_clones() {
        let gov = Governor::unlimited();
        let clone = gov.clone();
        assert!(clone.check().is_ok());
        gov.cancel();
        assert!(matches!(clone.check(), Err(StorageError::Cancelled)));
        assert!(clone.is_cancelled());
        assert!(clone.snapshot().cancelled);
    }

    #[test]
    fn deadline_fires_on_first_check() {
        let gov = Governor::with_limits(Some(Duration::ZERO), None);
        assert!(matches!(gov.check(), Err(StorageError::DeadlineExceeded)));
        // Latched: later checks keep reporting the deadline, not the
        // generic cancellation.
        assert!(matches!(gov.check(), Err(StorageError::DeadlineExceeded)));
        assert!(gov.is_cancelled());
    }

    #[test]
    fn deadline_detected_within_stride() {
        let gov = Governor::with_limits(Some(Duration::from_millis(1)), None);
        assert!(gov.check().is_ok());
        std::thread::sleep(Duration::from_millis(5));
        let mut failed = false;
        for _ in 0..DEADLINE_STRIDE + 1 {
            if gov.check().is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "deadline not detected within one stride");
    }

    #[test]
    fn memory_budget_accounts_and_rejects() {
        let gov = Governor::with_limits(None, Some(1000));
        assert!(gov.try_reserve(600));
        assert!(!gov.try_reserve(600), "would exceed the budget");
        assert_eq!(gov.mem_used(), 600);
        let err = gov.reserve(600).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::MemoryExceeded {
                    used: 1200,
                    budget: 1000
                }
            ),
            "{err}"
        );
        gov.release(600);
        assert!(gov.try_reserve(1000));
        let snap = gov.snapshot();
        assert_eq!(snap.peak_bytes, 1000);
        gov.release(1000);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn reservation_guard_releases_on_drop_and_unwind() {
        let gov = Governor::with_limits(None, Some(100));
        {
            let mut r = MemReservation::empty(&gov);
            assert!(r.grow(70));
            assert!(!r.grow(70));
            assert_eq!(gov.mem_used(), 70);
        }
        assert_eq!(gov.mem_used(), 0, "drop released the reservation");
        let gov2 = gov.clone();
        let panicked = std::panic::catch_unwind(move || {
            let _r = MemReservation::new(&gov2, 90).unwrap();
            panic!("boom");
        });
        assert!(panicked.is_err());
        assert_eq!(gov.mem_used(), 0, "unwind released the reservation");
    }

    #[test]
    fn install_scope_nests_and_restores() {
        assert!(!Governor::current().is_active());
        let outer = Governor::unlimited();
        {
            let _a = outer.install();
            assert!(Governor::current().is_active());
            let inner = Governor::unlimited();
            {
                let _b = inner.install();
                inner.cancel();
                assert!(Governor::check_current().is_err());
            }
            // Back to the outer (uncancelled) governor.
            assert!(Governor::check_current().is_ok());
        }
        assert!(!Governor::current().is_active());
        assert!(Governor::check_current().is_ok());
    }

    #[test]
    fn trip_cancel_fires_at_scripted_check() {
        let gov = Governor::unlimited();
        gov.trip_cancel_after_checks(3);
        assert!(gov.check().is_ok());
        assert!(gov.check().is_ok());
        assert!(matches!(gov.check(), Err(StorageError::Cancelled)));
    }

    #[test]
    fn trip_panic_fires_at_scripted_check() {
        let gov = Governor::unlimited();
        gov.trip_panic_after_checks(2);
        assert!(gov.check().is_ok());
        let gov2 = gov.clone();
        let result = std::panic::catch_unwind(move || {
            let _ = gov2.check();
        });
        assert!(result.is_err(), "scripted panic did not fire");
    }

    #[test]
    fn spill_counters_accumulate() {
        let gov = Governor::unlimited();
        gov.note_spill(100);
        gov.note_spill(250);
        let snap = gov.snapshot();
        assert_eq!(snap.spill_count, 2);
        assert_eq!(snap.spill_bytes, 350);
    }

    #[test]
    fn snapshot_render_formats() {
        assert_eq!(GovernorSnapshot::default().render(), "off");
        let gov = Governor::unlimited();
        let _ = gov.check();
        gov.cancel();
        let text = gov.snapshot().render();
        assert!(text.contains("1 checks"), "{text}");
        assert!(text.contains("CANCELLED"), "{text}");
    }
}
