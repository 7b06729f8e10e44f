//! The ProtoGen domain-specific language (§IV-A).
//!
//! The paper's primary input is an SSP written in a DSL "similar in spirit
//! to Teapot and SLICC" (Listing 1). This crate implements that front-end:
//! a tokenizer, a recursive-descent parser, and a lowering pass onto the
//! [`protogen_spec`] IR. The statement vocabulary covers everything the
//! paper's protocols need — message sends with payload sources, the
//! acknowledgment-counter idiom of Listing 1 (`set_expected`, `inc_acks`,
//! `acks_complete`), await blocks with guarded arms, and directory
//! auxiliary-state updates.
//!
//! # Example
//!
//! ```
//! let ssp = protogen_dsl::parse_protocol(protogen_dsl::MSI_PGEN).unwrap();
//! assert_eq!(ssp.name, "MSI");
//! assert_eq!(ssp.cache.states.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod lexer;
mod lower;
mod parser;
mod render;

pub use ast::ComposeLevel;
pub use lexer::{tokenize, Token, TokenKind};
pub use lower::{lower, LowerError};
pub use parser::{parse, ParseError};
pub use render::render;

use std::error::Error;
use std::fmt;

// The bundled protocol sources. Each file is the only definition of its
// protocol: `protogen_protocols::msi()` and the rest parse these.

/// The MSI protocol of the paper's Tables I/II (`protogen_protocols::msi()`).
pub const MSI_PGEN: &str = include_str!("../protocols/msi.pgen");

/// MESI with an exclusive-clean state (`protogen_protocols::mesi()`).
pub const MESI_PGEN: &str = include_str!("../protocols/mesi.pgen");

/// MOSI, the paper's preprocessing example (`protogen_protocols::mosi()`).
pub const MOSI_PGEN: &str = include_str!("../protocols/mosi.pgen");

/// MSI+Upgrade, §V-D1's reinterpretation example
/// (`protogen_protocols::msi_upgrade()`).
pub const MSI_UPGRADE_PGEN: &str = include_str!("../protocols/msi_upgrade.pgen");

/// MSI for unordered networks, §VI-C's handshake protocol
/// (`protogen_protocols::msi_unordered()`).
pub const MSI_UNORDERED_PGEN: &str = include_str!("../protocols/msi_unordered.pgen");

/// Simplified TSO-CC, §VI-D (`protogen_protocols::tso_cc()`).
pub const TSO_CC_PGEN: &str = include_str!("../protocols/tso_cc.pgen");

/// Self-invalidate/self-downgrade, VIPS-M family
/// (`protogen_protocols::si_sd()`).
pub const SI_SD_PGEN: &str = include_str!("../protocols/si_sd.pgen");

/// Front-end errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error during lowering.
    Lower(LowerError),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Parse(e) => write!(f, "{e}"),
            DslError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl Error for DslError {}

/// Parses and lowers DSL source into a validated SSP.
///
/// # Errors
///
/// Returns a [`DslError`] describing the first syntactic or semantic
/// problem.
pub fn parse_protocol(src: &str) -> Result<protogen_spec::Ssp, DslError> {
    let ast = parser::parse(src).map_err(DslError::Parse)?;
    lower::lower(&ast).map_err(DslError::Lower)
}

/// Parses a source carrying a `compose { l1: msi(2); llc: mesi; }` block
/// and returns its levels, leaf-first.
///
/// The protocol references come back *by name* — this crate has no
/// protocol registry, so the caller resolves them (the CLI maps each onto
/// `protogen_protocols::by_name` and builds a
/// `protogen_spec::Composition`). A composition source needs only the
/// `protocol NAME;` header and the `compose` block; any flat-protocol
/// sections alongside are parsed but not returned here.
///
/// # Errors
///
/// Returns a [`DslError`] on a syntax error or when the source has no
/// `compose` block.
pub fn parse_composition(src: &str) -> Result<Vec<ComposeLevel>, DslError> {
    let ast = parser::parse(src).map_err(DslError::Parse)?;
    if ast.compose.is_empty() {
        return Err(DslError::Parse(ParseError(format!(
            "`{}` declares no `compose` block",
            ast.name
        ))));
    }
    Ok(ast.compose)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_msi_parses_and_validates() {
        let ssp = parse_protocol(MSI_PGEN).unwrap();
        assert_eq!(ssp.name, "MSI");
        assert_eq!(ssp.cache.states.len(), 3);
        assert_eq!(ssp.directory.states.len(), 3);
        assert!(ssp.msg_by_name("Fwd_GetS").is_some());
    }

    #[test]
    fn bundled_mesi_parses_and_validates() {
        let ssp = parse_protocol(MESI_PGEN).unwrap();
        assert_eq!(ssp.name, "MESI");
        assert_eq!(ssp.cache.states.len(), 4);
        assert_eq!(ssp.directory.states.len(), 3);
    }

    #[test]
    fn bundled_upgrade_and_tso_cc_parse_and_validate() {
        let up = parse_protocol(MSI_UPGRADE_PGEN).unwrap();
        assert!(up.msg_by_name("Upgrade").is_some());
        let tso = parse_protocol(TSO_CC_PGEN).unwrap();
        assert!(tso.msg_by_name("Inv").is_none());
    }

    #[test]
    fn parse_composition_returns_levels_and_rejects_flat_sources() {
        let levels =
            parse_composition("protocol H; compose { l1: msi(2); llc: mesi(2); }").unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].protocol, "msi");
        assert_eq!(levels[1].fanout, Some(2));
        assert!(parse_composition(MSI_PGEN).is_err());
        // And the reverse: a composition source does not lower to one SSP.
        assert!(parse_protocol("protocol H; compose { l1: msi(2); }").is_err());
    }

    #[test]
    fn bundled_mosi_parses_and_validates() {
        let ssp = parse_protocol(MOSI_PGEN).unwrap();
        assert_eq!(ssp.name, "MOSI");
        assert_eq!(ssp.cache.states.len(), 4);
        assert_eq!(ssp.directory.states.len(), 4);
        // The conjunction guard survived the round trip.
        let o = ssp.directory.state_by_name("O").unwrap();
        let put_o = ssp.msg_by_name("PutO").unwrap();
        let entries = ssp.directory.entries_for(o, protogen_spec::Trigger::Msg(put_o));
        assert_eq!(entries[0].guards.len(), 2);
    }
}
