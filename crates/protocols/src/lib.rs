//! The stable state protocols evaluated by the ProtoGen paper.
//!
//! Every protocol here is an *atomic* specification — just the stable
//! states, as an architect would write them on a whiteboard. Feeding one to
//! `protogen_core::generate` produces the full concurrent protocol.
//!
//! The bundled `.pgen` sources in `crates/dsl/protocols/` are the
//! protocols: each function below parses its source (the matching
//! `protogen_dsl::*_PGEN` constant) once per process and returns a clone.
//!
//! | Function | Protocol | Source | Paper section |
//! |---|---|---|---|
//! | [`msi`] | Three-state MSI (Tables I/II) | `msi.pgen` | §VI-A/B |
//! | [`mesi`] | MESI with exclusive-clean state and silent upgrade | `mesi.pgen` | §VI-A/B |
//! | [`mosi`] | MOSI with owned state (preprocessing demo, Tables III/IV) | `mosi.pgen` | §VI-A/B |
//! | [`msi_upgrade`] | MSI + Upgrade requests (reinterpretation, §V-D1) | `msi_upgrade.pgen` | §V-D1 |
//! | [`msi_unordered`] | MSI with handshakes for unordered networks | `msi_unordered.pgen` | §VI-C |
//! | [`tso_cc`] | Simplified TSO-CC (no sharer tracking) | `tso_cc.pgen` | §VI-D |
//! | [`si_sd`] | Self-invalidate/self-downgrade (VIPS-M family) | `si_sd.pgen` | related work |
//!
//! # Example
//!
//! ```
//! let ssp = protogen_protocols::msi();
//! assert_eq!(ssp.cache.states.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod sanity;

pub use compose::{flat_composition, msi_under_mesi, msi_under_msi};
pub use sanity::{sim_sanity, SimSanity};

use protogen_spec::Ssp;
use std::sync::OnceLock;

/// Returns a clone of `cell`'s SSP, parsing `src` into it on first use.
fn bundled(cell: &OnceLock<Ssp>, src: &str) -> Ssp {
    cell.get_or_init(|| {
        protogen_dsl::parse_protocol(src)
            .unwrap_or_else(|e| panic!("a bundled protocol source must parse: {e}"))
    })
    .clone()
}

/// The three-state MSI protocol of the paper's Tables I (cache) and II
/// (directory), from `msi.pgen`.
pub fn msi() -> Ssp {
    static SSP: OnceLock<Ssp> = OnceLock::new();
    bundled(&SSP, protogen_dsl::MSI_PGEN)
}

/// MSI plus an exclusive-clean E state that upgrades to M silently, from
/// `mesi.pgen`.
pub fn mesi() -> Ssp {
    static SSP: OnceLock<Ssp> = OnceLock::new();
    bundled(&SSP, protogen_dsl::MESI_PGEN)
}

/// MSI plus an owned O state — the paper's preprocessing example (Tables
/// III/IV), from `mosi.pgen`.
pub fn mosi() -> Ssp {
    static SSP: OnceLock<Ssp> = OnceLock::new();
    bundled(&SSP, protogen_dsl::MOSI_PGEN)
}

/// MSI whose stores from S issue permission-only Upgrade requests (§V-D1's
/// reinterpretation example), from `msi_upgrade.pgen`.
pub fn msi_upgrade() -> Ssp {
    static SSP: OnceLock<Ssp> = OnceLock::new();
    bundled(&SSP, protogen_dsl::MSI_UPGRADE_PGEN)
}

/// MSI for an interconnect without point-to-point ordering (§VI-C), from
/// `msi_unordered.pgen`.
pub fn msi_unordered() -> Ssp {
    static SSP: OnceLock<Ssp> = OnceLock::new();
    bundled(&SSP, protogen_dsl::MSI_UNORDERED_PGEN)
}

/// Simplified TSO-CC: no invalidations, no sharer tracking, epoch
/// self-invalidation (§VI-D), from `tso_cc.pgen`.
pub fn tso_cc() -> Ssp {
    static SSP: OnceLock<Ssp> = OnceLock::new();
    bundled(&SSP, protogen_dsl::TSO_CC_PGEN)
}

/// Self-invalidate/self-downgrade over an owner-registry directory
/// (VIPS-M family), from `si_sd.pgen`.
pub fn si_sd() -> Ssp {
    static SSP: OnceLock<Ssp> = OnceLock::new();
    bundled(&SSP, protogen_dsl::SI_SD_PGEN)
}

/// All built-in protocols, for sweeps and benchmarks.
pub fn all() -> Vec<Ssp> {
    vec![msi(), mesi(), mosi(), msi_upgrade(), msi_unordered(), tso_cc(), si_sd()]
}

/// The CLI names of the built-in protocols, in [`all`]'s order.
pub const NAMES: [&str; 7] =
    ["msi", "mesi", "mosi", "msi-upgrade", "msi-unordered", "tso-cc", "si-sd"];

/// Looks a protocol up by its CLI name (see [`NAMES`]).
pub fn by_name(name: &str) -> Option<Ssp> {
    Some(match name {
        "msi" => msi(),
        "mesi" => mesi(),
        "mosi" => mosi(),
        "msi-upgrade" => msi_upgrade(),
        "msi-unordered" => msi_unordered(),
        "tso-cc" => tso_cc(),
        "si-sd" => si_sd(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::{Access, Action, Dst, Effect, EntryNote, MemoryModel, MsgClass, Trigger};

    /// The cache states `msg` arrives at, by name.
    fn arrivals(ssp: &Ssp, msg: &str) -> Vec<String> {
        let m = ssp.msg_by_name(msg).unwrap();
        ssp.cache
            .state_ids()
            .filter(|&s| ssp.cache.handles(s, Trigger::Msg(m)))
            .map(|s| ssp.cache.state(s).name.clone())
            .collect()
    }

    #[test]
    fn all_protocols_validate() {
        for ssp in all() {
            ssp.validate().unwrap_or_else(|e| panic!("{}: {e}", ssp.name));
        }
    }

    #[test]
    fn every_name_resolves_to_its_validated_protocol_in_all_order() {
        let names = ["MSI", "MESI", "MOSI", "MSI-Upgrade", "MSI-unordered", "TSO-CC", "SI-SD"];
        let all = all();
        assert_eq!(all.len(), NAMES.len());
        for ((cli, name), listed) in NAMES.iter().zip(names).zip(&all) {
            let ssp = by_name(cli).unwrap_or_else(|| panic!("{cli} does not resolve"));
            ssp.validate().unwrap_or_else(|e| panic!("{cli}: {e}"));
            assert_eq!(ssp.name, name, "{cli}");
            assert_eq!(&ssp, listed, "all() is out of NAMES order at {cli}");
        }
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn forwards_arrive_at_unique_states() {
        // Table I: Fwd-GetS and Fwd-GetM at M only; Inv at S only. The SSP
        // already satisfies the §V-A invariant without preprocessing.
        let ssp = msi();
        for (name, state) in [("Fwd_GetS", "M"), ("Fwd_GetM", "M"), ("Inv", "S")] {
            assert_eq!(arrivals(&ssp, name), vec![state.to_string()], "{name}");
        }
    }

    #[test]
    fn message_classes_match_roles() {
        let ssp = msi();
        let msg = |name| ssp.msg(ssp.msg_by_name(name).unwrap());
        assert_eq!(msg("GetS").class, MsgClass::Request);
        assert_eq!(msg("Inv").class, MsgClass::Forward);
        assert_eq!(msg("Data").class, MsgClass::Response);
        assert!(msg("Data").carries_data);
        assert!(msg("PutM").carries_data);
        assert!(!msg("PutS").carries_data);
    }

    #[test]
    fn forwards_arrive_at_e_and_m() {
        assert_eq!(arrivals(&mesi(), "Fwd_GetS"), ["E", "M"]);
    }

    #[test]
    fn silent_upgrade_is_a_local_store() {
        let ssp = mesi();
        let e = ssp.cache.state_by_name("E").unwrap();
        let m = ssp.cache.state_by_name("M").unwrap();
        let entries = ssp.cache.entries_for(e, Trigger::Access(Access::Store));
        assert_eq!(entries.len(), 1);
        match &entries[0].effect {
            Effect::Local { next, .. } => assert_eq!(*next, Some(m)),
            other => panic!("expected silent upgrade, got {other:?}"),
        }
    }

    #[test]
    fn fwd_gets_arrives_at_m_and_o_before_preprocessing() {
        // Tables III/IV: the natural SSP lets Fwd_GetS arrive at both M and
        // O; preprocessing (tested in protogen-core) renames O's copy.
        assert_eq!(arrivals(&mosi(), "Fwd_GetS"), ["O", "M"]);
    }

    #[test]
    fn owner_upgrade_awaits_count_not_data() {
        let ssp = mosi();
        let o = ssp.cache.state_by_name("O").unwrap();
        let entries = ssp.cache.entries_for(o, Trigger::Access(Access::Store));
        let Effect::Issue { chain, .. } = &entries[0].effect else {
            panic!("O store should issue");
        };
        assert_eq!(chain.nodes[0].tag, "AC");
    }

    #[test]
    fn store_from_s_issues_upgrade_not_getm() {
        let ssp = msi_upgrade();
        let s = ssp.cache.state_by_name("S").unwrap();
        let entries = ssp.cache.entries_for(s, Trigger::Access(Access::Store));
        let Effect::Issue { request, .. } = &entries[0].effect else {
            panic!("S store should issue");
        };
        let upgrade = ssp.msg_by_name("Upgrade").unwrap();
        assert!(request.iter().any(|a| matches!(a, Action::Send(sp) if sp.msg == upgrade)));
    }

    #[test]
    fn upgrade_wait_accepts_count_or_data() {
        // The upgrader may receive AckCount (it won) or Data (it lost and
        // the directory reinterpreted the Upgrade as a GetM).
        let ssp = msi_upgrade();
        let s = ssp.cache.state_by_name("S").unwrap();
        let entries = ssp.cache.entries_for(s, Trigger::Access(Access::Store));
        let Effect::Issue { chain, .. } = &entries[0].effect else {
            panic!("S store should issue");
        };
        let msgs: Vec<_> = chain.nodes[0].arcs.iter().map(|a| a.msg).collect();
        assert!(msgs.contains(&ssp.msg_by_name("AckCount").unwrap()));
        assert!(msgs.contains(&ssp.msg_by_name("Data").unwrap()));
    }

    #[test]
    fn handoff_blocks_for_confirmation() {
        let ssp = msi_unordered();
        assert!(!ssp.network_ordered);
        let dm = ssp.directory.state_by_name("M").unwrap();
        let get_m = ssp.msg_by_name("GetM").unwrap();
        let entries = ssp.directory.entries_for(dm, Trigger::Msg(get_m));
        assert!(matches!(entries[0].effect, Effect::Issue { .. }));
    }

    #[test]
    fn no_invalidations_or_sharer_tracking() {
        let ssp = tso_cc();
        assert!(ssp.msg_by_name("Inv").is_none());
        assert!(ssp.msg_by_name("Inv_Ack").is_none());
        // No directory action ever touches a sharer list.
        for e in &ssp.directory.entries {
            let actions = match &e.effect {
                Effect::Local { actions, .. } => actions,
                Effect::Issue { request, .. } => request,
            };
            for a in actions {
                assert!(
                    !matches!(
                        a,
                        Action::AddReqToSharers
                            | Action::AddOwnerToSharers
                            | Action::RemoveReqFromSharers
                            | Action::ClearSharers
                    ),
                    "sharer tracking found: {a}"
                );
            }
        }
    }

    #[test]
    fn shared_eviction_is_silent() {
        let ssp = tso_cc();
        let s = ssp.cache.state_by_name("S").unwrap();
        let entries = ssp.cache.entries_for(s, Trigger::Access(Access::Replacement));
        assert_eq!(entries.len(), 1);
        match &entries[0].effect {
            Effect::Local { actions, next } => {
                assert!(actions.iter().all(|a| !matches!(a, Action::Send(_))));
                assert_eq!(*next, Some(ssp.cache.state_by_name("I").unwrap()));
            }
            other => panic!("expected silent eviction, got {other:?}"),
        }
    }

    #[test]
    fn declares_weak_per_line_semantics() {
        let ssp = si_sd();
        assert_eq!(ssp.consistency, MemoryModel::Weak);
        assert!(!ssp.si_epoch);
    }

    #[test]
    fn si_and_sd_entries_carry_their_notes() {
        let ssp = si_sd();
        let s = ssp.cache.state_by_name("S").unwrap();
        let m = ssp.cache.state_by_name("M").unwrap();
        let si = ssp.cache.entries_for(s, Trigger::Access(Access::Replacement));
        assert_eq!(si.len(), 1);
        assert_eq!(si[0].note, EntryNote::SelfInvalidate);
        let sd = ssp.cache.entries_for(m, Trigger::Access(Access::Replacement));
        assert_eq!(sd.len(), 1);
        assert_eq!(sd[0].note, EntryNote::SelfDowngrade);
        // SD is a transaction (the writeback awaits its ack), SI is local.
        assert!(matches!(sd[0].effect, Effect::Issue { .. }));
        assert!(matches!(si[0].effect, Effect::Local { .. }));
    }

    #[test]
    fn directory_never_forwards_or_invalidates() {
        let ssp = si_sd();
        assert!(ssp.messages.iter().all(|m| m.class != MsgClass::Forward));
        // Every directory entry is Local (no transient directory states)
        // and never sends to anyone but the requestor.
        for e in &ssp.directory.entries {
            match &e.effect {
                Effect::Local { actions, .. } => {
                    for a in actions {
                        if let Action::Send(sp) = a {
                            assert_eq!(sp.dst, Dst::Req, "directory sent {a}");
                        }
                    }
                }
                other => panic!("directory has a transient effect: {other:?}"),
            }
        }
    }
}
