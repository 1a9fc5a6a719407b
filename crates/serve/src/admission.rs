//! Admission control: per-tenant quotas and the slots requests run in.
//!
//! Nothing past this module is allowed to allocate unbounded memory on
//! behalf of a client. A request is admitted only if
//!
//! 1. its payload is within the tenant's byte quota and its fuel ask is
//!    within the tenant's fuel quota (violations are *deterministic* —
//!    the same request is rejected every time, with [`crate::proto::ErrClass::Quota`]);
//! 2. the tenant's in-flight count is below its cap (violations are
//!    *load-dependent* and answered with `Busy`, inviting a retry); and
//! 3. a slot is free, or one comes free while the request waits in a line
//!    of bounded length (`Slots`; a full line answers `Busy` — the
//!    load-shedding path: the line never grows, memory never does).
//!
//! In-flight accounting is RAII: an [`InflightGuard`] decrements its
//! tenant's count on drop and a `Held` slot goes back on drop, so a
//! panicking request or a dropped connection can leak neither.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Per-tenant resource limits, enforced at admission.
#[derive(Clone, Debug)]
pub struct TenantQuota {
    /// Maximum requests a tenant may have in flight (waiting + running).
    pub max_inflight: u32,
    /// Maximum request payload bytes.
    pub max_bytes: u64,
    /// Maximum fuel a single request may ask for.
    pub max_fuel: u64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            max_inflight: 8,
            max_bytes: 4 << 20,
            max_fuel: 1_000_000_000,
        }
    }
}

/// Why admission refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Payload larger than the tenant's byte quota (deterministic).
    Bytes {
        /// Request payload size.
        got: u64,
        /// The quota it violated.
        max: u64,
    },
    /// Fuel ask above the tenant's fuel quota (deterministic).
    Fuel {
        /// Requested fuel.
        got: u64,
        /// The quota it violated.
        max: u64,
    },
    /// Tenant already at its in-flight cap (retryable).
    Inflight {
        /// Current in-flight count.
        current: u32,
        /// The cap.
        max: u32,
    },
}

impl AdmitError {
    /// Whether the client should retry (load-dependent) or give up
    /// (deterministic quota violation).
    pub fn retryable(&self) -> bool {
        matches!(self, AdmitError::Inflight { .. })
    }
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Bytes { got, max } => {
                write!(f, "payload {got} bytes exceeds tenant quota {max}")
            }
            AdmitError::Fuel { got, max } => {
                write!(f, "fuel ask {got} exceeds tenant quota {max}")
            }
            AdmitError::Inflight { current, max } => {
                write!(f, "tenant at in-flight cap ({current}/{max})")
            }
        }
    }
}

/// Tracks per-tenant in-flight counts against a [`TenantQuota`].
#[derive(Debug)]
pub struct Admission {
    quota: TenantQuota,
    inflight: Mutex<HashMap<String, u32>>,
}

impl Admission {
    /// New admission controller with one quota applied to every tenant.
    pub fn new(quota: TenantQuota) -> Arc<Admission> {
        Arc::new(Admission {
            quota,
            inflight: Mutex::new(HashMap::new()),
        })
    }

    /// Admit a request: check deterministic quotas first (so their
    /// rejection never depends on load), then reserve an in-flight slot.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] as classified; nothing is reserved on failure.
    pub fn admit(
        self: &Arc<Admission>,
        tenant: &str,
        bytes: u64,
        fuel: u64,
    ) -> Result<InflightGuard, AdmitError> {
        if bytes > self.quota.max_bytes {
            return Err(AdmitError::Bytes {
                got: bytes,
                max: self.quota.max_bytes,
            });
        }
        if fuel > self.quota.max_fuel {
            return Err(AdmitError::Fuel {
                got: fuel,
                max: self.quota.max_fuel,
            });
        }
        let tenant = canonical_tenant(tenant);
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        let n = map.entry(tenant.clone()).or_insert(0);
        if *n >= self.quota.max_inflight {
            return Err(AdmitError::Inflight {
                current: *n,
                max: self.quota.max_inflight,
            });
        }
        *n += 1;
        Ok(InflightGuard {
            admission: Arc::clone(self),
            tenant,
        })
    }

    /// Current in-flight count for a tenant (tests, stats).
    pub fn inflight(&self, tenant: &str) -> u32 {
        let map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&canonical_tenant(tenant)).copied().unwrap_or(0)
    }

    fn release(&self, tenant: &str) {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(n) = map.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(tenant);
            }
        }
    }
}

/// Empty tenant ids all account to one bucket rather than each getting a
/// fresh quota.
fn canonical_tenant(tenant: &str) -> String {
    if tenant.is_empty() {
        "anon".into()
    } else {
        tenant.into()
    }
}

/// RAII in-flight reservation; releases its slot on drop.
#[derive(Debug)]
pub struct InflightGuard {
    admission: Arc<Admission>,
    tenant: String,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.admission.release(&self.tenant);
    }
}

// -- slots --------------------------------------------------------------

/// Why [`Slots::acquire`] lent no slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NoSlot {
    /// Every slot is held and the line is full: shed with `Busy`.
    Full,
    /// The deadline passed while waiting in line.
    Expired,
}

/// A fixed set of slots, each lent to one request at a time. A request
/// that finds none free waits in line for one; at most `depth` requests
/// wait (0: nobody does), a request past them is refused at once, and a
/// waiter leaves the line the moment its deadline passes.
pub(crate) struct Slots<T> {
    inner: Mutex<SlotsInner<T>>,
    freed: Condvar,
    depth: usize,
}

struct SlotsInner<T> {
    /// The free slots; the one given back last is lent first.
    free: Vec<T>,
    waiting: usize,
}

impl<T> Slots<T> {
    /// `slots`, lent first to last while all are free, behind a line of
    /// at most `depth` waiters.
    pub(crate) fn new(mut slots: Vec<T>, depth: usize) -> Slots<T> {
        slots.reverse();
        Slots {
            inner: Mutex::new(SlotsInner {
                free: slots,
                waiting: 0,
            }),
            freed: Condvar::new(),
            depth,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotsInner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a free slot, waiting in line for one until `deadline`.
    ///
    /// # Errors
    ///
    /// [`NoSlot::Full`] when the line is full, [`NoSlot::Expired`] when
    /// the deadline passed in it.
    pub(crate) fn acquire(&self, deadline: Instant) -> Result<Held<'_, T>, NoSlot> {
        let mut inner = self.lock();
        if inner.free.is_empty() {
            if inner.waiting >= self.depth {
                return Err(NoSlot::Full);
            }
            inner.waiting += 1;
            while inner.free.is_empty() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    inner.waiting -= 1;
                    return Err(NoSlot::Expired);
                }
                inner = self
                    .freed
                    .wait_timeout(inner, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            inner.waiting -= 1;
        }
        let slot = inner.free.pop();
        Ok(Held { slots: self, slot })
    }

    /// Take every free slot out for good (shutdown, once nothing holds
    /// one).
    pub(crate) fn take_all(&self) -> Vec<T> {
        std::mem::take(&mut self.lock().free)
    }
}

/// A slot lent by [`Slots::acquire`]; dropping it gives the slot back and
/// wakes one waiter, so a panicking holder cannot leak it.
pub(crate) struct Held<'a, T> {
    slots: &'a Slots<T>,
    slot: Option<T>,
}

impl<T> Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.slot.as_ref().expect("held until dropped")
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.slot.as_mut().expect("held until dropped")
    }
}

impl<T> Drop for Held<'_, T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.slots.lock().free.push(slot);
            self.slots.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn deterministic_quotas_reject_before_inflight() {
        let a = Admission::new(TenantQuota {
            max_inflight: 2,
            max_bytes: 100,
            max_fuel: 1000,
        });
        assert_eq!(
            a.admit("t", 101, 0).unwrap_err(),
            AdmitError::Bytes { got: 101, max: 100 }
        );
        assert_eq!(
            a.admit("t", 0, 1001).unwrap_err(),
            AdmitError::Fuel {
                got: 1001,
                max: 1000
            }
        );
        assert!(!a.admit("t", 101, 0).unwrap_err().retryable());
        // Rejections reserved nothing.
        assert_eq!(a.inflight("t"), 0);
    }

    #[test]
    fn inflight_cap_is_per_tenant_and_raii_released() {
        let a = Admission::new(TenantQuota {
            max_inflight: 2,
            ..TenantQuota::default()
        });
        let g1 = a.admit("t", 0, 0).unwrap();
        let _g2 = a.admit("t", 0, 0).unwrap();
        let err = a.admit("t", 0, 0).unwrap_err();
        assert_eq!(err, AdmitError::Inflight { current: 2, max: 2 });
        assert!(err.retryable());
        // A different tenant is unaffected.
        let _other = a.admit("u", 0, 0).unwrap();
        // Dropping a guard frees the slot.
        drop(g1);
        assert_eq!(a.inflight("t"), 1);
        let _g3 = a.admit("t", 0, 0).unwrap();
    }

    #[test]
    fn empty_tenant_shares_one_bucket() {
        let a = Admission::new(TenantQuota {
            max_inflight: 1,
            ..TenantQuota::default()
        });
        let _g = a.admit("", 0, 0).unwrap();
        assert!(a.admit("", 0, 0).is_err());
        assert_eq!(a.inflight("anon"), 1);
    }

    fn soon(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn slots_lend_in_order_and_come_back_on_drop() {
        let s = Slots::new(vec![0, 1], 4);
        let a = s.acquire(soon(1000)).unwrap();
        let b = s.acquire(soon(1000)).unwrap();
        assert_eq!((*a, *b), (0, 1));
        drop(a);
        assert_eq!(*s.acquire(soon(1000)).unwrap(), 0);
        drop(b);
        assert_eq!(s.take_all().len(), 2);
    }

    #[test]
    fn no_line_at_depth_zero_sheds_the_second_request_at_once() {
        let s = Slots::new(vec![()], 0);
        let _held = s.acquire(soon(10_000)).unwrap();
        let t0 = Instant::now();
        assert_eq!(s.acquire(soon(10_000)).err(), Some(NoSlot::Full));
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    /// Spin until `n` requests wait in line.
    fn until_waiting<T>(s: &Slots<T>, n: usize) {
        while s.lock().waiting != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_line_is_bounded_and_a_waiter_leaves_at_its_deadline() {
        let s = Slots::new(vec![()], 1);
        let held = s.acquire(soon(10_000)).unwrap();
        std::thread::scope(|scope| {
            // One waiter fills the line; the next request is shed.
            let waiter = scope.spawn(|| {
                let t0 = Instant::now();
                (s.acquire(soon(100)).err(), t0.elapsed())
            });
            until_waiting(&s, 1);
            assert_eq!(s.acquire(soon(10_000)).err(), Some(NoSlot::Full));
            let (got, waited) = waiter.join().unwrap();
            assert_eq!(got, Some(NoSlot::Expired));
            assert!(waited < Duration::from_millis(400), "{waited:?}");
            // The expired waiter gave its place up: the next request
            // waits there and gets the slot when it is freed.
            let next = scope.spawn(|| s.acquire(soon(10_000)).is_ok());
            until_waiting(&s, 1);
            drop(held);
            assert!(next.join().unwrap(), "a freed slot goes to the waiter");
        });
    }
}
