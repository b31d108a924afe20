//! Cooperative cancellation of in-flight simulations.
//!
//! A [`CancelToken`] is a cheap cloneable flag shared between a batch
//! driver and the jobs it runs. The simulators poll it only at *safe
//! points* — the fast mode between scheduling rounds, the cycle engine
//! between fixed-length windows (single-group topologies) and at epoch
//! boundaries, the reference scan between scan passes — so cancellation
//! never interrupts an instruction mid-issue and never perturbs the
//! results of runs that complete before the flag is raised. A cancelled run returns
//! its partial result with the `cancelled` flag set
//! ([`ClusterResult::cancelled`](crate::ClusterResult),
//! [`CycleResult::cancelled`](crate::CycleResult)); callers must treat
//! such results as untrusted partial state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag, polled cooperatively by the simulators.
///
/// Clones observe the same flag; once raised it never resets. The default
/// token is un-cancelled.
///
/// # Examples
///
/// ```
/// use terasim_terapool::CancelToken;
///
/// let token = CancelToken::new();
/// let view = token.clone();
/// assert!(!view.is_cancelled());
/// token.cancel();
/// assert!(view.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; takes effect at every holder's next
    /// safe point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }
}
