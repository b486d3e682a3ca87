//! Format-agnostic front door: one ingest/egress pair covering every
//! netlist format the toolchain reads or writes.
//!
//! The CLI, examples, and workload generators route through this layer
//! instead of calling `parse_blif`/`write_blif` directly, so adding a
//! format is a local change. AIGER bytes pass through the
//! [`crate::bridge`] to become SOP networks and back.

use crate::blif::{parse_blif, write_blif, ParseBlifError};
use crate::bridge::{aig_from_network, network_from_aig, BridgeOptions};
use crate::net::{Network, NetworkError};
use boolsubst_aig::{
    parse_aiger_ascii, parse_aiger_binary, write_aiger_ascii, write_aiger_binary, AigerError,
};
use std::fmt;
use std::path::Path;

/// A netlist interchange format the toolchain understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Berkeley Logic Interchange Format (`.blif`), SOP-native.
    Blif,
    /// ASCII AIGER (`.aag`).
    AigerAscii,
    /// Binary AIGER (`.aig`), delta-encoded.
    AigerBinary,
}

impl Format {
    /// Detects the format from a file path's extension
    /// (case-insensitive): `.blif`, `.aag`, `.aig`.
    #[must_use]
    pub fn from_path(path: impl AsRef<Path>) -> Option<Format> {
        let ext = path.as_ref().extension()?.to_str()?;
        Format::from_extension(ext)
    }

    /// Maps an extension (without the dot, case-insensitive) to a format.
    #[must_use]
    pub fn from_extension(ext: &str) -> Option<Format> {
        match ext.to_ascii_lowercase().as_str() {
            "blif" => Some(Format::Blif),
            "aag" => Some(Format::AigerAscii),
            "aig" => Some(Format::AigerBinary),
            _ => None,
        }
    }

    /// The canonical file extension (without the dot).
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            Format::Blif => "blif",
            Format::AigerAscii => "aag",
            Format::AigerBinary => "aig",
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Format::Blif => "BLIF",
            Format::AigerAscii => "ASCII AIGER",
            Format::AigerBinary => "binary AIGER",
        })
    }
}

/// Errors from [`ingest`].
#[derive(Debug)]
pub enum IngestError {
    /// The bytes are not valid UTF-8 but the format is text-based.
    NotUtf8(Format),
    /// BLIF parse failure.
    Blif(ParseBlifError),
    /// AIGER parse failure.
    Aiger(AigerError),
    /// The parsed AIG could not be bridged into a network (e.g.
    /// irreconcilable symbol-name collisions).
    Bridge(NetworkError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NotUtf8(fmt_) => write!(f, "{fmt_} input is not valid UTF-8"),
            IngestError::Blif(e) => write!(f, "BLIF: {e}"),
            IngestError::Aiger(e) => write!(f, "AIGER: {e}"),
            IngestError::Bridge(e) => write!(f, "AIG bridge: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::NotUtf8(_) => None,
            IngestError::Blif(e) => Some(e),
            IngestError::Aiger(e) => Some(e),
            IngestError::Bridge(e) => Some(e),
        }
    }
}

impl From<ParseBlifError> for IngestError {
    fn from(e: ParseBlifError) -> IngestError {
        IngestError::Blif(e)
    }
}

impl From<AigerError> for IngestError {
    fn from(e: AigerError) -> IngestError {
        IngestError::Aiger(e)
    }
}

/// Parses `bytes` as `format` into a network named `model` (AIGER has no
/// embedded model name; BLIF keeps its own `.model` line and ignores
/// `model`). Uses the default [`BridgeOptions`] cover collapse.
///
/// # Errors
///
/// Returns [`IngestError`] on malformed input; never panics.
pub fn ingest(bytes: &[u8], format: Format, model: &str) -> Result<Network, IngestError> {
    let opts = BridgeOptions::default();
    match format {
        Format::Blif => {
            let text =
                std::str::from_utf8(bytes).map_err(|_| IngestError::NotUtf8(Format::Blif))?;
            Ok(parse_blif(text)?)
        }
        Format::AigerAscii => {
            let text =
                std::str::from_utf8(bytes).map_err(|_| IngestError::NotUtf8(Format::AigerAscii))?;
            let aig = parse_aiger_ascii(text)?;
            network_from_aig(&aig, model, opts).map_err(IngestError::Bridge)
        }
        Format::AigerBinary => {
            let aig = parse_aiger_binary(bytes)?;
            network_from_aig(&aig, model, opts).map_err(IngestError::Bridge)
        }
    }
}

/// Serializes the network as `format`. AIGER targets go through
/// [`aig_from_network`]; the external don't-care network, if any, is
/// representable only in BLIF and is dropped by the AIGER paths.
#[must_use]
pub fn egress(net: &Network, format: Format) -> Vec<u8> {
    match format {
        Format::Blif => write_blif(net).into_bytes(),
        Format::AigerAscii => write_aiger_ascii(&aig_from_network(net)).into_bytes(),
        Format::AigerBinary => write_aiger_binary(&aig_from_network(net)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
.model demo
.inputs a b c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
";

    #[test]
    fn extension_detection() {
        assert_eq!(Format::from_path("x/y/z.blif"), Some(Format::Blif));
        assert_eq!(Format::from_path("netlist.AAG"), Some(Format::AigerAscii));
        assert_eq!(Format::from_path("big.aig"), Some(Format::AigerBinary));
        assert_eq!(Format::from_path("README.md"), None);
        assert_eq!(Format::from_path("no_extension"), None);
        assert_eq!(Format::from_extension("Aig"), Some(Format::AigerBinary));
    }

    #[test]
    fn cross_format_roundtrip_preserves_function() {
        let net = ingest(SAMPLE.as_bytes(), Format::Blif, "demo").expect("blif");
        for format in [Format::Blif, Format::AigerAscii, Format::AigerBinary] {
            let bytes = egress(&net, format);
            let back = ingest(&bytes, format, "demo").expect("reingest");
            back.check_invariants();
            for m in 0u32..8 {
                let inputs: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
                assert_eq!(
                    net.eval_outputs(&inputs),
                    back.eval_outputs(&inputs),
                    "{format} diverged on {inputs:?}"
                );
            }
        }
    }

    #[test]
    fn malformed_inputs_error_out() {
        assert!(ingest(b"\xFF\xFE", Format::Blif, "m").is_err());
        assert!(ingest(b"aag oops", Format::AigerAscii, "m").is_err());
        // Header promises one AND but the delta stream is missing.
        assert!(ingest(b"aig 2 1 0 1 1\n4\n", Format::AigerBinary, "m").is_err());
    }
}
