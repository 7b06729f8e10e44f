//! Generation configuration (the ProtoGen input parameters of §IV-A).

use std::fmt;

/// Whether generated controllers stall on racing transactions or process
/// them with additional transient states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Concurrency {
    /// Stall on potentially racing requests (at the cost of performance,
    /// while still preventing deadlocks). Forwards belonging to transactions
    /// ordered *earlier* at the directory are still processed immediately —
    /// stalling those would deadlock (§V-D1).
    Stalling,
    /// Avoid stalling whenever possible at the expense of more transient
    /// states (§IV-A).
    #[default]
    NonStalling,
}

impl fmt::Display for Concurrency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Concurrency::Stalling => f.write_str("stalling"),
            Concurrency::NonStalling => f.write_str("non-stalling"),
        }
    }
}

/// How responses owed to later-ordered transactions are sent (§V-D2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResponsePolicy {
    /// "Immediate Transition, Deferred Responses": data-bearing responses
    /// are deferred until the own transaction completes, preserving SWMR in
    /// physical time. Data-free acknowledgments are sent immediately.
    #[default]
    DeferData,
    /// "Immediate Transition and Responses": responses are sent as soon as
    /// their content is available. Preserves per-location sequential
    /// consistency but not physical-time SWMR.
    Immediate,
}

impl fmt::Display for ResponsePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponsePolicy::DeferData => f.write_str("deferred-data"),
            ResponsePolicy::Immediate => f.write_str("immediate"),
        }
    }
}

/// Which accesses are permitted in transient states (Step 4, §V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransientAccessPolicy {
    /// The paper's rule: an access is permitted in a transient state when
    /// the transaction's initial stable state, every final stable state, and
    /// every post-forward logical state of the deferral chain grant it — and,
    /// for states with a non-empty chain, only while the block still holds
    /// the data copy it had in the initial stable state. This reproduces
    /// every access cell of Table VI.
    #[default]
    Paper,
    /// Stall every access in every transient state. More merges, more
    /// stalling, trivially safe.
    Conservative,
}

impl fmt::Display for TransientAccessPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransientAccessPolicy::Paper => f.write_str("paper"),
            TransientAccessPolicy::Conservative => f.write_str("conservative"),
        }
    }
}

/// Full generation configuration.
///
/// The defaults generate the paper's headline configuration: non-stalling
/// controllers with deferred data responses, the Step-4 access rule, a
/// pending-transaction limit of 3, and primer-style stale-Put cleanup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Stalling or non-stalling controllers.
    pub concurrency: Concurrency,
    /// Deferred or immediate responses for later-ordered transactions.
    pub response_policy: ResponsePolicy,
    /// Access permissions in transient states.
    pub transient_access: TransientAccessPolicy,
    /// The pending transaction limit L (§V-D2): the number of later-ordered
    /// transactions a controller observes before it stalls. Bounds the
    /// transient auxiliary state.
    pub pending_limit: usize,
    /// Remove the requestor from the sharer list when acknowledging a stale
    /// Put (design note N6; the paper calls this optional, the primer does
    /// it).
    pub dir_stale_put_cleanup: bool,
    /// Generate defensive stale-forward handlers (`I + Inv → Inv-Ack` and
    /// friends): a dataless-response forward whose epoch ended (its target
    /// raced a replacement past it) is acknowledged wherever no regular
    /// handler exists. Required for deadlock freedom on networks where
    /// responses can overtake forwards; on (default) keeps the paper's
    /// protocols complete.
    pub defensive_stable_handlers: bool,
    /// Merge behaviourally identical transient states after generation
    /// (the IMAS = SMAS merges of §VI-B). On by default; turning it off
    /// must never change protocol behaviour — the minimize-equivalence
    /// property test holds the generator to that.
    pub minimize: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            concurrency: Concurrency::NonStalling,
            response_policy: ResponsePolicy::DeferData,
            transient_access: TransientAccessPolicy::Paper,
            pending_limit: 3,
            dir_stale_put_cleanup: true,
            defensive_stable_handlers: true,
            minimize: true,
        }
    }
}

impl GenConfig {
    /// The paper's §VI-A configuration: stalling controllers.
    pub fn stalling() -> Self {
        GenConfig { concurrency: Concurrency::Stalling, ..GenConfig::default() }
    }

    /// The paper's §VI-B configuration: non-stalling controllers (this is
    /// also the default).
    pub fn non_stalling() -> Self {
        GenConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_non_stalling_defer_data() {
        let c = GenConfig::default();
        assert_eq!(c.concurrency, Concurrency::NonStalling);
        assert_eq!(c.response_policy, ResponsePolicy::DeferData);
        assert_eq!(c.transient_access, TransientAccessPolicy::Paper);
        assert_eq!(c.pending_limit, 3);
        assert!(c.dir_stale_put_cleanup);
        assert!(c.defensive_stable_handlers);
        assert!(c.minimize);
    }

    #[test]
    fn stalling_preset() {
        assert_eq!(GenConfig::stalling().concurrency, Concurrency::Stalling);
        assert_eq!(GenConfig::non_stalling().concurrency, Concurrency::NonStalling);
    }
}
