//! Bytes from the network never panic the JSON parser, and whatever it
//! accepts survives the wire unchanged.
//!
//! Every input — arbitrary bytes, arbitrary strings, strings built from
//! JSON tokens, and every one-byte mutation of real grant, lease-table,
//! outcome-frame, job-record and job-result documents (checked
//! exhaustively) — must make [`Json::parse`] return either an error or a
//! value that encodes and parses back to itself.

use std::time::Duration;

use fsp_fleet::lease::{ChunkSpec, FleetConfig, LeaseTable};
use fsp_fleet::{Json, OutcomeFrame, OutcomeKey};
use fsp_inject::{FaultModel, FaultSite};
use fsp_serve::job::result_to_json;
use fsp_serve::{JobRecord, JobResult, JobSpec};
use fsp_stats::{Outcome, ResilienceProfile};
use proptest::prelude::*;

/// Parses `text`; an accepted value must re-encode to text that parses
/// back to the same value and encodes to the same bytes.
fn check(text: &str) -> Result<(), String> {
    let Ok(value) = Json::parse(text) else {
        return Ok(());
    };
    let encoded = value.to_string();
    let back = Json::parse(&encoded)
        .map_err(|e| format!("{text:?} parsed, but its encoding {encoded:?} does not: {e}"))?;
    if back != value || back.to_string() != encoded {
        return Err(format!(
            "{text:?} -> {value:?} -> {encoded:?} -> {back:?} does not round-trip"
        ));
    }
    Ok(())
}

/// [`check`] on raw bytes, lossily decoded as the HTTP layer would (when
/// they are UTF-8, that is the text itself).
fn check_bytes(bytes: &[u8]) -> Result<(), String> {
    check(&String::from_utf8_lossy(bytes))
}

fn sites() -> Vec<FaultSite> {
    (0..2)
        .map(|i| FaultSite {
            tid: 37 * i,
            dyn_idx: 1000 + i,
            bit: (7 * i) % 32,
        })
        .collect()
}

/// Real documents of each kind the coordinator and its workers exchange.
fn documents() -> Vec<(&'static str, String)> {
    let table = LeaseTable::new(FleetConfig {
        lease_ttl: Duration::from_secs(30),
        chunk_sites: 5,
    });
    table.publish(vec![ChunkSpec {
        job: "job-3".to_owned(),
        chunk_idx: 0,
        kernel: "gemm".to_owned(),
        model: FaultModel::SingleBitFlip,
        fingerprint: 0xdead_beef_0123_4567,
        launch: u64::MAX - 5,
        sites: sites(),
    }]);
    let grant = table
        .acquire("worker-1")
        .grant
        .expect("a chunk is available");
    let frame = OutcomeFrame {
        worker: "worker-1".to_owned(),
        records: sites()
            .into_iter()
            .zip([Outcome::Sdc, Outcome::HANG])
            .map(|(site, outcome)| {
                let key = OutcomeKey::new(grant.fingerprint, grant.launch, grant.model, site);
                (key, outcome)
            })
            .collect(),
    };
    let spec = JobSpec::sampled("gemm", 300).with_stop(0.05, 0.95);
    let mut record = JobRecord::new("job-3".to_owned(), spec.clone());
    let mut profile = ResilienceProfile::new();
    for (outcome, weight) in [(Outcome::Masked, 0.1), (Outcome::Sdc, 1.0 / 3.0)] {
        profile.record_weighted(outcome, weight);
    }
    record.partial = profile;
    record.done = 2;
    record.total = 300;
    let result = JobResult {
        fingerprint: grant.fingerprint,
        launch: grant.launch,
        sites: 300,
        profile,
        early: None,
    };
    vec![
        ("grant", grant.to_json().to_string()),
        ("lease table", table.status_json().to_string()),
        ("outcome frame", frame.to_json().to_string()),
        ("job record", record.to_json().to_string()),
        ("job result", result_to_json(&spec, &result).to_string()),
    ]
}

#[test]
fn every_one_byte_mutation_of_a_real_document_parses_or_errs() {
    for (kind, doc) in documents() {
        assert!(Json::parse(&doc).is_ok(), "{kind} document must parse");
        check(&doc).unwrap_or_else(|e| panic!("{kind}: {e}"));
        let mut bytes = doc.into_bytes();
        for pos in 0..bytes.len() {
            let original = bytes[pos];
            for b in 0..=255u8 {
                bytes[pos] = b;
                check_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{kind}, byte {pos} = {b:#04x}: {e}"));
            }
            bytes[pos] = original;
        }
    }
}

/// Fragments the token strategy concatenates: structure, literals and
/// their prefixes, number pieces (including overflowing exponents),
/// escapes (including truncated and surrogate `\u` escapes) and
/// multi-byte characters.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    " ",
    "\n",
    "null",
    "nul",
    "true",
    "fals",
    "0",
    "7",
    "-",
    "+",
    ".",
    "e",
    "E",
    "1e999",
    "-1e400",
    "1e-400",
    "9007199254740993",
    "\\",
    "\\u",
    "\\ud800",
    "\\u00e9",
    "\\uZZ",
    "\\n",
    "\\x",
    "é",
    "𝄞",
    "\u{7f}",
    "\u{1}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_parse_or_err(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(check_bytes(&bytes), Ok(()));
    }

    #[test]
    fn arbitrary_strings_parse_or_err(codes in prop::collection::vec(any::<u32>(), 0..64)) {
        let text: String = codes.into_iter().filter_map(char::from_u32).collect();
        prop_assert_eq!(check(&text), Ok(()));
    }

    #[test]
    fn token_strings_parse_or_err(picks in prop::collection::vec(any::<u32>(), 0..48)) {
        let text: String = picks
            .into_iter()
            .map(|p| TOKENS[p as usize % TOKENS.len()])
            .collect();
        prop_assert_eq!(check(&text), Ok(()));
    }
}
