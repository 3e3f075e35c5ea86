//! Bytes from the network never panic the wire decoders, and corrupt
//! input is never accepted.
//!
//! * Arbitrary bytes and strings fed to [`decode_record`], [`from_hex`],
//!   [`SiteFrame::from_json`] and [`OutcomeFrame::from_json`] return, they
//!   do not panic.
//! * A frame whose `fnv` does not match its payload is rejected.
//! * Every one-byte corruption of a valid 32-byte record is rejected,
//!   checked exhaustively. The record check is the low 16 bits of plain
//!   FNV-1a, and each FNV-1a step (xor a byte, multiply by an odd prime)
//!   maps those low 16 bits one-to-one, so a changed byte always changes
//!   them.

use fsp_fleet::wire::{
    decode_record, encode_record, frame_fnv, from_hex, to_hex, OutcomeFrame, OutcomeKey, SiteFrame,
    RECORD_LEN,
};
use fsp_fleet::Json;
use fsp_inject::{FaultModel, FaultSite};
use fsp_stats::Outcome;
use proptest::prelude::*;

/// Characters the string strategy draws from: hex digits of both cases,
/// JSON punctuation, and multi-byte characters.
const ALPHABET: &[char] = &[
    '0', '1', '7', '9', 'a', 'f', 'A', 'F', 'g', 'z', ' ', '"', '{', '}', ':', ',', '\\', 'é', '€',
    '𝄞',
];

fn text(codes: Vec<u32>) -> String {
    codes
        .into_iter()
        .map(|c| ALPHABET[c as usize % ALPHABET.len()])
        .collect()
}

fn records() -> Vec<(OutcomeKey, Outcome)> {
    let outcomes = [
        Outcome::Masked,
        Outcome::Sdc,
        Outcome::CRASH,
        Outcome::HANG,
        Outcome::Detected,
    ];
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| {
            let site = FaultSite {
                tid: 7 * i as u32,
                dyn_idx: 1000 + i as u32,
                bit: i as u32 % 32,
            };
            let key = OutcomeKey::new(
                0x0123_4567_89ab_cdef ^ i as u64,
                0xfeed_f00d,
                FaultModel::ALL[i % FaultModel::ALL.len()],
                site,
            );
            (key, outcome)
        })
        .collect()
}

fn site_frame_json(sites: Vec<FaultSite>) -> Json {
    Json::Obj(SiteFrame { sites }.to_fields())
}

fn outcome_frame_json() -> Json {
    OutcomeFrame {
        worker: "w".to_owned(),
        records: records(),
    }
    .to_json()
}

/// `frame` with field `key` replaced by the string `value`.
fn with_field(frame: &Json, key: &str, value: String) -> Json {
    let Json::Obj(fields) = frame else {
        panic!("frames are JSON objects");
    };
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| {
                let v = if k == key {
                    Json::Str(value.clone())
                } else {
                    v.clone()
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

#[test]
fn every_one_byte_corruption_of_a_record_is_rejected() {
    for (key, outcome) in records() {
        let valid = encode_record(&key, outcome);
        assert_eq!(decode_record(&valid), Some((key, outcome)));
        for pos in 0..RECORD_LEN {
            for delta in 1..=255u8 {
                let mut corrupt = valid;
                corrupt[pos] ^= delta;
                assert_eq!(
                    decode_record(&corrupt),
                    None,
                    "byte {pos} xor {delta:#04x} of {key:?} was accepted"
                );
            }
        }
    }
}

#[test]
fn valid_frames_round_trip() {
    let sites = vec![FaultSite {
        tid: 3,
        dyn_idx: 9,
        bit: 31,
    }];
    assert_eq!(
        SiteFrame::from_json(&site_frame_json(sites.clone())).map(|f| f.sites),
        Ok(sites)
    );
    let frame = OutcomeFrame::from_json(&outcome_frame_json()).expect("valid frame");
    assert_eq!(frame.records, records());
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..80)) {
        let _ = decode_record(&bytes);
        // Well-formed hex carrying arbitrary bytes and a matching checksum
        // reaches the site unpacker and the record decoder.
        let hex = to_hex(&bytes);
        prop_assert_eq!(from_hex(&hex), Some(bytes.clone()));
        let fnv = frame_fnv(&bytes).to_string();
        let site = Json::obj([("sites", Json::Str(hex.clone())), ("fnv", Json::Str(fnv.clone()))]);
        if let Ok(frame) = SiteFrame::from_json(&site) {
            prop_assert_eq!(frame.sites.len() * 12, bytes.len());
        }
        let outcome = Json::obj([
            ("worker", Json::Str("w".to_owned())),
            ("records", Json::Str(hex)),
            ("fnv", Json::Str(fnv)),
        ]);
        if let Ok(frame) = OutcomeFrame::from_json(&outcome) {
            prop_assert_eq!(frame.records.len() * RECORD_LEN, bytes.len());
        }
    }

    #[test]
    fn arbitrary_strings_never_panic_the_decoders(
        codes in prop::collection::vec(any::<u32>(), 0..96),
        fnv in any::<u64>(),
    ) {
        let s = text(codes);
        if let Some(bytes) = from_hex(&s) {
            prop_assert_eq!(bytes.len() * 2, s.len());
        }
        for fnv in [fnv.to_string(), s.clone()] {
            let site = Json::obj([("sites", Json::Str(s.clone())), ("fnv", Json::Str(fnv.clone()))]);
            let _ = SiteFrame::from_json(&site);
            let outcome = Json::obj([
                ("worker", Json::Str(s.clone())),
                ("records", Json::Str(s.clone())),
                ("fnv", Json::Str(fnv)),
            ]);
            let _ = OutcomeFrame::from_json(&outcome);
        }
        // Arbitrary text through the JSON parser and on into the frames.
        if let Ok(json) = Json::parse(&s) {
            let _ = SiteFrame::from_json(&json);
            let _ = OutcomeFrame::from_json(&json);
        }
    }

    #[test]
    fn a_frame_whose_fnv_does_not_match_is_rejected(
        fnv in any::<u64>(),
        tid in any::<u32>(),
        pos in any::<usize>(),
        delta in 1u8..255,
    ) {
        let sites = vec![FaultSite { tid, dyn_idx: 5, bit: 2 }, FaultSite { tid: 1, dyn_idx: tid, bit: 0 }];
        let site = site_frame_json(sites.clone());
        let packed = fsp_inject::pack_sites(&sites);
        prop_assume!(fnv != frame_fnv(&packed));
        prop_assert!(SiteFrame::from_json(&with_field(&site, "fnv", fnv.to_string())).is_err());
        // A corrupted payload under its original checksum.
        let mut corrupt = packed.clone();
        corrupt[pos % packed.len()] ^= delta;
        prop_assert!(SiteFrame::from_json(&with_field(&site, "sites", to_hex(&corrupt))).is_err());

        let outcome = outcome_frame_json();
        let mut raw = Vec::new();
        for (key, o) in records() {
            raw.extend_from_slice(&encode_record(&key, o));
        }
        prop_assume!(fnv != frame_fnv(&raw));
        prop_assert!(OutcomeFrame::from_json(&with_field(&outcome, "fnv", fnv.to_string())).is_err());
        let n = raw.len();
        raw[pos % n] ^= delta;
        prop_assert!(OutcomeFrame::from_json(&with_field(&outcome, "records", to_hex(&raw))).is_err());
    }
}
