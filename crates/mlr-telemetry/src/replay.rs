//! Trace replay reader: parse an exported access trace back into
//! [`AccessRecord`]s.
//!
//! [`TelemetrySnapshot::to_json`](crate::TelemetrySnapshot::to_json) emits
//! the access trace as an `"accesses"` array of flat objects; this module
//! is its inverse, so a trace recorded in one process (or one run) can be
//! replayed in another — the input format of the cluster replay harness.
//! The reader accepts either a full snapshot document or a bare array (the
//! form [`export_access_records`] writes), and round-trips exactly:
//! `parse_access_records(&export_access_records(&records)) == records`.
//!
//! The vendored `serde_json` shim only *serialises*, so the reader is a
//! small hand-rolled scanner over the known five-field record shape —
//! `{"entry":N,"op":N,"stripe":N,"kind":"<name>","tick":N}` — rather than
//! a general JSON parser. Unknown keys inside a record are ignored;
//! missing keys, malformed numbers and unknown kind names are errors.

use crate::trace::{AccessKind, AccessRecord};
use std::fmt;

/// Why an exported trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// No `[` array opener found (neither a bare array nor an `"accesses"`
    /// section).
    MissingArray,
    /// The array (or a record object) was never closed.
    UnterminatedArray,
    /// A record is missing `field` or its value is malformed.
    BadField {
        /// Which of the five record fields failed.
        field: &'static str,
        /// The offending record object, verbatim.
        record: String,
    },
    /// A record's `kind` is not one of the stable access-kind names.
    UnknownKind(String),
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::MissingArray => {
                write!(f, "no access-record array found in the input")
            }
            TraceParseError::UnterminatedArray => {
                write!(f, "access-record array is not terminated")
            }
            TraceParseError::BadField { field, record } => {
                write!(f, "missing or malformed field {field:?} in record {record}")
            }
            TraceParseError::UnknownKind(kind) => {
                write!(f, "unknown access kind {kind:?}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Serialises records as a bare JSON array in the exact per-record shape
/// of [`TelemetrySnapshot::to_json`](crate::TelemetrySnapshot::to_json)'s
/// `"accesses"` section.
pub fn export_access_records(records: &[AccessRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(16 + records.len() * 64);
    out.push('[');
    for (i, access) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"entry\":{},\"op\":{},\"stripe\":{},\"kind\":\"{}\",\"tick\":{}}}",
            access.entry,
            access.op,
            access.stripe,
            access.kind.name(),
            access.tick
        );
    }
    out.push_str("\n]\n");
    out
}

/// Extracts the unsigned integer following `"name":` in `record`.
fn field_u64(record: &str, name: &'static str) -> Result<u64, TraceParseError> {
    let bad = || TraceParseError::BadField {
        field: name,
        record: record.to_string(),
    };
    let key = format!("\"{name}\":");
    let start = record.find(&key).ok_or_else(bad)? + key.len();
    let digits: String = record[start..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().map_err(|_| bad())
}

/// Extracts the quoted string following `"name":` in `record`.
fn field_str<'a>(record: &'a str, name: &'static str) -> Result<&'a str, TraceParseError> {
    let bad = || TraceParseError::BadField {
        field: name,
        record: record.to_string(),
    };
    let key = format!("\"{name}\":");
    let start = record.find(&key).ok_or_else(bad)? + key.len();
    let rest = record[start..].trim_start();
    let rest = rest.strip_prefix('"').ok_or_else(bad)?;
    let end = rest.find('"').ok_or_else(bad)?;
    Ok(&rest[..end])
}

fn parse_record(object: &str) -> Result<AccessRecord, TraceParseError> {
    let kind_name = field_str(object, "kind")?;
    let kind = AccessKind::from_name(kind_name)
        .ok_or_else(|| TraceParseError::UnknownKind(kind_name.to_string()))?;
    let op = field_u64(object, "op")?;
    let op = u8::try_from(op).map_err(|_| TraceParseError::BadField {
        field: "op",
        record: object.to_string(),
    })?;
    let stripe = field_u64(object, "stripe")?;
    let stripe = u32::try_from(stripe).map_err(|_| TraceParseError::BadField {
        field: "stripe",
        record: object.to_string(),
    })?;
    Ok(AccessRecord {
        entry: field_u64(object, "entry")?,
        op,
        stripe,
        kind,
        tick: field_u64(object, "tick")?,
    })
}

/// Parses an exported access trace — either a bare record array (from
/// [`export_access_records`]) or a full snapshot document (from
/// [`TelemetrySnapshot::to_json`](crate::TelemetrySnapshot::to_json), whose
/// `"accesses"` section is read) — back into the identical record stream.
pub fn parse_access_records(json: &str) -> Result<Vec<AccessRecord>, TraceParseError> {
    // Locate the record array: after the "accesses" key in a snapshot
    // document, or the document itself when it is a bare array.
    let array_from = match json.find("\"accesses\":") {
        Some(key) => key + "\"accesses\":".len(),
        None => 0,
    };
    let open = json[array_from..]
        .find('[')
        .ok_or(TraceParseError::MissingArray)?
        + array_from;
    // Within the array, records are flat objects whose only strings are
    // bare kind names — no nested brackets, no escapes — so bracket
    // counting suffices.
    let mut records = Vec::new();
    let mut rest = &json[open + 1..];
    loop {
        let next_obj = rest.find('{');
        let close = rest.find(']').ok_or(TraceParseError::UnterminatedArray)?;
        match next_obj {
            Some(obj) if obj < close => {
                let end = rest[obj..]
                    .find('}')
                    .ok_or(TraceParseError::UnterminatedArray)?
                    + obj;
                records.push(parse_record(&rest[obj..=end])?);
                rest = &rest[end + 1..];
            }
            _ => break,
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<AccessRecord> {
        let kinds = [
            AccessKind::Insert,
            AccessKind::Hit,
            AccessKind::Miss,
            AccessKind::Evict,
            AccessKind::Lost,
        ];
        (0..25u64)
            .map(|i| AccessRecord {
                entry: i * 3,
                op: (i % 4) as u8,
                stripe: (i % 7) as u32,
                kind: kinds[(i % 5) as usize],
                tick: 100 + i,
            })
            .collect()
    }

    #[test]
    fn bare_array_round_trips() {
        let records = sample();
        let json = export_access_records(&records);
        assert_eq!(parse_access_records(&json).unwrap(), records);
    }

    #[test]
    fn empty_array_parses() {
        assert_eq!(parse_access_records("[]").unwrap(), Vec::new());
        assert_eq!(
            parse_access_records(&export_access_records(&[])).unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert_eq!(
            parse_access_records("no array here"),
            Err(TraceParseError::MissingArray)
        );
        assert_eq!(
            parse_access_records("[ {\"entry\":1"),
            Err(TraceParseError::UnterminatedArray)
        );
        assert!(matches!(
            parse_access_records("[{\"entry\":1,\"op\":0,\"stripe\":0,\"kind\":\"hit\"}]"),
            Err(TraceParseError::BadField { field: "tick", .. })
        ));
        assert!(matches!(
            parse_access_records(
                "[{\"entry\":1,\"op\":0,\"stripe\":0,\"kind\":\"warp\",\"tick\":1}]"
            ),
            Err(TraceParseError::UnknownKind(_))
        ));
        assert!(matches!(
            parse_access_records(
                "[{\"entry\":1,\"op\":999,\"stripe\":0,\"kind\":\"hit\",\"tick\":1}]"
            ),
            Err(TraceParseError::BadField { field: "op", .. })
        ));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            AccessKind::Hit,
            AccessKind::Miss,
            AccessKind::Insert,
            AccessKind::Evict,
            AccessKind::Lost,
            AccessKind::Promote,
            AccessKind::Demote,
        ] {
            assert_eq!(AccessKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(AccessKind::from_name("nope"), None);
    }
}
