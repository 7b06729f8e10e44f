//! Stable state protocol structure.

use crate::action::Action;
use crate::guard::Guard;
use crate::ids::{MsgId, StableId};
use std::fmt;

/// Which controller a machine specification describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// A private cache controller.
    Cache,
    /// The directory controller (colocated with the shared LLC).
    Directory,
}

impl fmt::Display for MachineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineKind::Cache => f.write_str("cache"),
            MachineKind::Directory => f.write_str("directory"),
        }
    }
}

/// A core-issued access (§III-A: load, store, or replacement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Access {
    /// A read.
    Load,
    /// A write.
    Store,
    /// An eviction.
    Replacement,
}

impl Access {
    /// All access kinds, in the column order of the paper's tables.
    pub const ALL: [Access; 3] = [Access::Load, Access::Store, Access::Replacement];

    /// Dense index for array storage.
    pub fn index(self) -> usize {
        match self {
            Access::Load => 0,
            Access::Store => 1,
            Access::Replacement => 2,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Load => f.write_str("load"),
            Access::Store => f.write_str("store"),
            Access::Replacement => f.write_str("replacement"),
        }
    }
}

/// Coherence permission granted by a cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Perm {
    /// No access permitted (I and directory states).
    None,
    /// Loads permitted (S, O in MOSI for reads, …).
    Read,
    /// Loads and stores permitted (M, E after upgrade, …).
    ReadWrite,
}

impl Perm {
    /// Whether this permission level satisfies `access`.
    ///
    /// Replacements are permitted at every level: evicting an invalid block
    /// is a no-op the core never issues, and the SSP decides whether a state
    /// reacts to a replacement at all.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Load => self >= Perm::Read,
            Access::Store => self >= Perm::ReadWrite,
            Access::Replacement => true,
        }
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Perm::None => f.write_str("-"),
            Perm::Read => f.write_str("R"),
            Perm::ReadWrite => f.write_str("RW"),
        }
    }
}

/// Declaration of one stable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StableDecl {
    /// State name, e.g. `"M"`.
    pub name: String,
    /// Access permission the state grants (meaningful for caches only).
    pub perm: Perm,
    /// Whether a block in this state holds a valid data copy.
    pub data_valid: bool,
}

/// The memory model a protocol promises to preserve (§VI-D and the
/// weak-memory protocol families of ROADMAP).
///
/// The model names the *contract*: which checker properties apply (see
/// `protogen-mc`'s property set) and which litmus verdict the protocol must
/// earn. SC protocols keep per-access SWMR; TSO protocols may buffer stores
/// behind stale shared copies but never reorder them; weak protocols only
/// promise eventual coherence at self-invalidation/self-downgrade points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// Sequential consistency: physical SWMR plus data-value coherence.
    Sc,
    /// Total store order: a single writer at a time, stale readers allowed.
    Tso,
    /// Weaker than TSO: coherence only at explicit sync/SI/SD points.
    Weak,
}

impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryModel::Sc => f.write_str("sc"),
            MemoryModel::Tso => f.write_str("tso"),
            MemoryModel::Weak => f.write_str("weak"),
        }
    }
}

impl std::str::FromStr for MemoryModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sc" => Ok(MemoryModel::Sc),
            "tso" => Ok(MemoryModel::Tso),
            "weak" => Ok(MemoryModel::Weak),
            other => Err(format!("unknown memory model `{other}` (expected sc|tso|weak)")),
        }
    }
}

/// Provenance annotation on an SSP entry: is this a demand transition or
/// one of the self-* primitives of SI/SD protocol families?
///
/// Self-invalidations and self-downgrades reuse the `Replacement` trigger —
/// they *are* spontaneous evictions/downgrades semantically — but the note
/// survives generation (as an `ArcNote`) so memory-model tooling (the litmus
/// harness) can distinguish "the protocol may drop this copy at any sync
/// point" from an ordinary capacity eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EntryNote {
    /// An ordinary demand transition (the default for every entry).
    #[default]
    Demand,
    /// A self-invalidation: the cache spontaneously drops a readable copy.
    SelfInvalidate,
    /// A self-downgrade: the cache spontaneously writes back ownership.
    SelfDowngrade,
}

impl fmt::Display for EntryNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryNote::Demand => f.write_str("demand"),
            EntryNote::SelfInvalidate => f.write_str("self-invalidate"),
            EntryNote::SelfDowngrade => f.write_str("self-downgrade"),
        }
    }
}

/// What causes an SSP entry to fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// A core access (cache machines only).
    Access(Access),
    /// An incoming coherence message.
    Msg(MsgId),
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Access(a) => write!(f, "{a}"),
            Trigger::Msg(m) => write!(f, "{m}"),
        }
    }
}

/// Target of a wait-chain arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitTo {
    /// Move to another await point in the same chain.
    Wait(usize),
    /// The transaction completes; enter the given stable state.
    Done(StableId),
}

/// One labelled arc out of an await point: "when *msg* \[guard\]: actions".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitArc {
    /// The awaited message type.
    pub msg: MsgId,
    /// Optional guard (e.g. [`Guard::AckCountIsZero`]).
    pub guards: Vec<Guard>,
    /// Actions performed when the arc fires.
    pub actions: Vec<Action>,
    /// Where the arc leads.
    pub to: WaitTo,
}

/// An await point inside a transaction (one `await { … }` block of the DSL).
///
/// Each await point becomes one transient state during generation (Step 2 of
/// §V-C): the `tag` is the naming hint, so the await point of an I→M
/// transaction tagged `"AD"` becomes the transient state `IM_AD`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitNode {
    /// Naming tag (`"D"`, `"AD"`, `"A"`, …), conventionally the initials of
    /// the awaited message classes.
    pub tag: String,
    /// Arcs out of this await point.
    pub arcs: Vec<WaitArc>,
}

/// The await structure of a transaction. Node 0 is the entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitChain {
    /// Await points; index 0 is entered when the request is issued.
    pub nodes: Vec<WaitNode>,
}

impl WaitChain {
    /// The set of stable states this chain can complete into.
    pub fn final_states(&self) -> Vec<StableId> {
        let mut out: Vec<StableId> = self
            .nodes
            .iter()
            .flat_map(|n| n.arcs.iter())
            .filter_map(|a| match a.to {
                WaitTo::Done(s) => Some(s),
                WaitTo::Wait(_) => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// The effect of an SSP entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// The trigger is handled locally and (optionally) atomically changes
    /// the stable state: cache hits, silent upgrades, and all single-step
    /// directory reactions.
    Local {
        /// Actions performed.
        actions: Vec<Action>,
        /// New stable state, or `None` to remain in the current state.
        next: Option<StableId>,
    },
    /// The trigger starts a coherence transaction: perform `request`
    /// (typically a send to the directory) and enter the wait chain.
    Issue {
        /// Request actions (sends, counter resets).
        request: Vec<Action>,
        /// The await structure.
        chain: WaitChain,
    },
}

/// One row-cell of the SSP tables: in `state`, on `trigger` (and `guard`),
/// do `effect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SspEntry {
    /// The stable state the entry applies to.
    pub state: StableId,
    /// What fires the entry.
    pub trigger: Trigger,
    /// Optional guard distinguishing entries for the same trigger.
    pub guards: Vec<Guard>,
    /// The effect.
    pub effect: Effect,
    /// Demand transition or SI/SD primitive (see [`EntryNote`]).
    pub note: EntryNote,
}

/// The SSP of a single machine (cache or directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSsp {
    /// Which controller this is.
    pub kind: MachineKind,
    /// Stable states. Index 0 is the initial state.
    pub states: Vec<StableDecl>,
    /// Specification entries.
    pub entries: Vec<SspEntry>,
}

impl MachineSsp {
    /// Creates an empty machine specification.
    pub fn new(kind: MachineKind) -> Self {
        MachineSsp { kind, states: Vec::new(), entries: Vec::new() }
    }

    /// Looks up a stable state id by name.
    pub fn state_by_name(&self, name: &str) -> Option<StableId> {
        self.states.iter().position(|s| s.name == name).map(StableId::from_usize)
    }

    /// Returns the declaration of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: StableId) -> &StableDecl {
        &self.states[id.as_usize()]
    }

    /// Iterates over all stable state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StableId> + '_ {
        (0..self.states.len()).map(StableId::from_usize)
    }

    /// All entries for `state` with the given trigger, in declaration order.
    pub fn entries_for(&self, state: StableId, trigger: Trigger) -> Vec<&SspEntry> {
        self.entries.iter().filter(|e| e.state == state && e.trigger == trigger).collect()
    }

    /// Whether any entry exists for `state` and `trigger`.
    pub fn handles(&self, state: StableId, trigger: Trigger) -> bool {
        self.entries.iter().any(|e| e.state == state && e.trigger == trigger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_ordering_allows_accesses() {
        assert!(Perm::ReadWrite.allows(Access::Load));
        assert!(Perm::ReadWrite.allows(Access::Store));
        assert!(Perm::Read.allows(Access::Load));
        assert!(!Perm::Read.allows(Access::Store));
        assert!(!Perm::None.allows(Access::Load));
        assert!(Perm::None.allows(Access::Replacement));
    }

    #[test]
    fn chain_final_states_deduplicated() {
        let chain = WaitChain {
            nodes: vec![WaitNode {
                tag: "D".into(),
                arcs: vec![
                    WaitArc {
                        msg: MsgId(0),
                        guards: vec![Guard::AckCountIsZero],
                        actions: vec![],
                        to: WaitTo::Done(StableId(1)),
                    },
                    WaitArc {
                        msg: MsgId(0),
                        guards: vec![Guard::AckCountNonZero],
                        actions: vec![],
                        to: WaitTo::Done(StableId(1)),
                    },
                ],
            }],
        };
        assert_eq!(chain.final_states(), vec![StableId(1)]);
    }

    #[test]
    fn machine_lookup_by_name() {
        let mut m = MachineSsp::new(MachineKind::Cache);
        m.states.push(StableDecl { name: "I".into(), perm: Perm::None, data_valid: false });
        assert_eq!(m.state_by_name("I"), Some(StableId(0)));
        assert_eq!(m.state_by_name("Z"), None);
    }
}
