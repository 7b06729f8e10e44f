//! Index newtypes used throughout the IR.

use std::fmt;

/// Identifier of a stable state within one machine specification.
///
/// Stable state ids index into [`crate::MachineSsp::states`]. Each machine
/// (cache, directory) has its own id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StableId(pub u16);

impl StableId {
    /// Creates a `StableId` from a vector index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in 16 bits.
    pub fn from_usize(i: usize) -> Self {
        StableId(u16::try_from(i).expect("more than 65535 stable states"))
    }

    /// Returns the id as a vector index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a message type within one protocol.
///
/// Message ids index into [`crate::Ssp::messages`]; the id space is shared by
/// both machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgId(pub u16);

impl MsgId {
    /// Creates a `MsgId` from a vector index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in 16 bits.
    pub fn from_usize(i: usize) -> Self {
        MsgId(u16::try_from(i).expect("more than 65535 message types"))
    }

    /// Returns the id as a vector index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_indices() {
        assert_eq!(StableId::from_usize(3).as_usize(), 3);
        assert_eq!(MsgId::from_usize(7).as_usize(), 7);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(StableId(1).to_string(), "s1");
        assert_eq!(MsgId(2).to_string(), "m2");
    }
}
