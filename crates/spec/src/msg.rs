//! Message type declarations.

use std::fmt;

/// The role a message type plays in the protocol.
///
/// The classification mirrors §III-A of the paper: a coherence transaction
/// consists of an initial *request*, zero or more directory-*forwarded*
/// requests, and one or more *responses* (data or acknowledgments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Cache → directory initial request (GetS, GetM, PutM, Upgrade, …).
    Request,
    /// Directory → cache forwarded request (Fwd-GetS, Inv, …). Forwarded
    /// requests are the messages that racing transactions inject into a
    /// cache mid-transaction; the generation algorithm keys on them.
    Forward,
    /// Data responses and acknowledgments (Data, Inv-Ack, Put-Ack, …).
    Response,
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgClass::Request => "request",
            MsgClass::Forward => "forward",
            MsgClass::Response => "response",
        };
        f.write_str(s)
    }
}

/// The virtual network a message travels on.
///
/// Three virtual networks (the standard arrangement for directory protocols)
/// prevent protocol-level message deadlock: responses are never blocked by
/// requests. The ProtoGen paper leaves virtual-channel assignment to the
/// user (§IV-C); the builder assigns the conventional network per class and
/// allows overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VirtualNet {
    /// Carries initial requests.
    Request,
    /// Carries directory-forwarded requests.
    Forward,
    /// Carries data and acknowledgments; never blocked.
    Response,
}

impl VirtualNet {
    /// All virtual networks, in delivery-priority order (responses first).
    pub const ALL: [VirtualNet; 3] =
        [VirtualNet::Response, VirtualNet::Forward, VirtualNet::Request];

    /// Returns a small dense index for array storage.
    pub fn index(self) -> usize {
        match self {
            VirtualNet::Request => 0,
            VirtualNet::Forward => 1,
            VirtualNet::Response => 2,
        }
    }
}

impl fmt::Display for VirtualNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VirtualNet::Request => "vnet-req",
            VirtualNet::Forward => "vnet-fwd",
            VirtualNet::Response => "vnet-resp",
        };
        f.write_str(s)
    }
}

/// Declaration of one message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgDecl {
    /// Message name, e.g. `"GetS"`, `"Fwd_GetM"`, `"Inv_Ack"`.
    pub name: String,
    /// Message classification.
    pub class: MsgClass,
    /// Virtual network assignment.
    pub vnet: VirtualNet,
    /// Whether the message carries a copy of the cache block.
    pub carries_data: bool,
    /// Whether the message carries an acknowledgment count.
    pub carries_ack_count: bool,
}

impl MsgDecl {
    /// Creates a declaration with the conventional virtual network for its
    /// class and no payload fields.
    pub fn new(name: impl Into<String>, class: MsgClass) -> Self {
        let vnet = match class {
            MsgClass::Request => VirtualNet::Request,
            MsgClass::Forward => VirtualNet::Forward,
            MsgClass::Response => VirtualNet::Response,
        };
        MsgDecl { name: name.into(), class, vnet, carries_data: false, carries_ack_count: false }
    }

    /// Marks the message as carrying block data.
    pub fn with_data(mut self) -> Self {
        self.carries_data = true;
        self
    }

    /// Marks the message as carrying an acknowledgment count.
    pub fn with_ack_count(mut self) -> Self {
        self.carries_ack_count = true;
        self
    }
}

impl fmt::Display for MsgDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_vnet_assignment() {
        assert_eq!(MsgDecl::new("GetS", MsgClass::Request).vnet, VirtualNet::Request);
        assert_eq!(MsgDecl::new("Inv", MsgClass::Forward).vnet, VirtualNet::Forward);
        assert_eq!(MsgDecl::new("Data", MsgClass::Response).vnet, VirtualNet::Response);
    }

    #[test]
    fn payload_builders() {
        let d = MsgDecl::new("Data", MsgClass::Response).with_data().with_ack_count();
        assert!(d.carries_data && d.carries_ack_count);
    }

    #[test]
    fn vnet_indices_are_dense() {
        let mut seen = [false; 3];
        for v in VirtualNet::ALL {
            seen[v.index()] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
