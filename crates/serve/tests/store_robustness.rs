//! Bytes on disk never panic the outcome store, and a corrupt record is
//! never served.
//!
//! [`OutcomeStore::open`] reads `checkpoint.bin` and `outcomes.log`. For
//! arbitrary bytes in either file, and for every one-byte mutation and
//! every truncation of a real log and a real checkpoint:
//!
//! * `open` returns, never panics;
//! * a checkpoint that is short, whose record count or checksum does not
//!   match, or that holds a record that does not decode is an error — so
//!   is every truncation and every one-byte mutation of a real one;
//! * otherwise the store holds exactly the checkpoint's records plus the
//!   log's records up to the first one that does not decode, and the log
//!   is cut back to those records (or emptied, when a bare checkpoint from
//!   before the framing is migrated);
//! * a record whose bytes were altered is never served;
//! * reopening gives the same index.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use fsp_fleet::wire::{decode_record, encode_record, RECORD_LEN};
use fsp_inject::{FaultModel, FaultSite};
use fsp_serve::{OutcomeKey, OutcomeStore};
use fsp_stats::Outcome;
use proptest::prelude::*;

type Index = HashMap<OutcomeKey, Outcome>;

/// A fresh scratch directory, one per test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fsp-store-robustness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(i: u32) -> OutcomeKey {
    OutcomeKey::new(
        0x5EED_0000_0000_0001 ^ (u64::from(i) << 20),
        0x0123_4567_89AB_CDEF,
        FaultModel::ALL[i as usize % FaultModel::ALL.len()],
        FaultSite {
            tid: i,
            dyn_idx: 3 * i + 1,
            bit: i % 32,
        },
    )
}

const OUTCOMES: [Outcome; 5] = [
    Outcome::Masked,
    Outcome::Sdc,
    Outcome::CRASH,
    Outcome::HANG,
    Outcome::Detected,
];

/// A real checkpoint of two records and a real log of three written after
/// it (one of them re-recording a checkpointed key with a new outcome),
/// as the store lays them out in a directory tagged `tag`. Returns
/// `(checkpoint, log)` bytes.
fn real_files(tag: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = scratch(&format!("{tag}-real"));
    {
        let mut store = OutcomeStore::open(&dir).unwrap();
        store.insert(key(0), Outcome::Masked).unwrap();
        store.insert(key(1), Outcome::Sdc).unwrap();
        store.checkpoint().unwrap();
        store.insert(key(2), Outcome::CRASH).unwrap();
        store.insert(key(0), Outcome::Detected).unwrap();
        store.insert(key(3), Outcome::HANG).unwrap();
        store.flush().unwrap();
    }
    let checkpoint = std::fs::read(dir.join("checkpoint.bin")).unwrap();
    let log = std::fs::read(dir.join("outcomes.log")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(checkpoint.len(), MAGIC.len() + 2 * RECORD_LEN + 16);
    assert_eq!(log.len(), 3 * RECORD_LEN);
    (checkpoint, log)
}

/// The header of a framed checkpoint.
const MAGIC: &[u8] = b"FSPCKPT\x01";

/// The records a checkpoint file opens to, or `None` where the store must
/// refuse it. A framed file is the header, whole records, their count and
/// the FNV-1a of everything before the checksum; a bare file from before
/// the framing is a non-empty run of whole records.
fn checkpoint_records(bytes: &[u8]) -> Option<Vec<(OutcomeKey, Outcome)>> {
    let body = match bytes.strip_prefix(MAGIC) {
        Some(rest) => {
            let (body, trailer) = rest.split_at(rest.len().checked_sub(16)?);
            let count = u64::from_le_bytes(trailer[..8].try_into().unwrap());
            let sum = u64::from_le_bytes(trailer[8..].try_into().unwrap());
            let whole =
                body.len().is_multiple_of(RECORD_LEN) && body.len() / RECORD_LEN == count as usize;
            (whole && sum == fsp_obs::fnv1a(&bytes[..bytes.len() - 8])).then_some(body)?
        }
        None => (!bytes.is_empty() && bytes.len().is_multiple_of(RECORD_LEN)).then_some(bytes)?,
    };
    body.chunks(RECORD_LEN).map(decode_record).collect()
}

/// The index the store must hold: `records` inserted in order.
fn index_of(records: impl IntoIterator<Item = (OutcomeKey, Outcome)>) -> Index {
    records.into_iter().collect()
}

/// The records of `bytes`, which are intact by construction.
fn records(bytes: &[u8]) -> Vec<(OutcomeKey, Outcome)> {
    bytes
        .chunks(RECORD_LEN)
        .map(|r| decode_record(r).expect("an intact record"))
        .collect()
}

fn assert_holds(store: &OutcomeStore, want: &Index, what: &str) {
    assert_eq!(store.len(), want.len(), "{what}: index size");
    for (k, &o) in want {
        assert_eq!(store.get(k), Some(o), "{what}: {k:?}");
    }
}

/// Lays `checkpoint` (absent if `None`) and `log` out in `dir`, opens the
/// store and checks it. With `expect` it must hold exactly that index,
/// and `None` means the open must fail; without, the expectation is
/// derived from the bytes. Returns whether the open succeeded.
fn check(dir: &Path, checkpoint: Option<&[u8]>, log: &[u8], expect: Option<Option<Index>>) -> bool {
    let cp_path = dir.join("checkpoint.bin");
    let log_path = dir.join("outcomes.log");
    match checkpoint {
        Some(bytes) => std::fs::write(&cp_path, bytes).unwrap(),
        None => {
            let _ = std::fs::remove_file(&cp_path);
        }
    }
    std::fs::write(&log_path, log).unwrap();
    let intact: Vec<(OutcomeKey, Outcome)> =
        log.chunks(RECORD_LEN).map_while(decode_record).collect();
    let want = expect.unwrap_or_else(|| {
        let cp = checkpoint.map_or(Some(Vec::new()), checkpoint_records);
        cp.map(|cp| index_of(cp.into_iter().chain(intact.iter().copied())))
    });
    let opened = OutcomeStore::open(dir);
    let Some(want) = want else {
        assert!(opened.is_err(), "a corrupt checkpoint was accepted");
        return false;
    };
    let store = opened.expect("the store opens");
    assert_holds(&store, &want, "open");
    // Migrating a bare checkpoint checkpoints the whole index at once.
    let bare = checkpoint.is_some_and(|bytes| !bytes.starts_with(MAGIC));
    assert_eq!(
        std::fs::metadata(&log_path).unwrap().len(),
        if bare {
            0
        } else {
            (intact.len() * RECORD_LEN) as u64
        },
        "the log is cut back to its last intact record"
    );
    drop(store);
    let again = OutcomeStore::open(dir).expect("the store reopens");
    assert_holds(&again, &want, "reopen");
    true
}

#[test]
fn real_files_open_to_their_records() {
    let (checkpoint, log) = real_files("intact");
    let dir = scratch("intact");
    let cp = checkpoint_records(&checkpoint).expect("a framed checkpoint");
    let want = index_of(cp.into_iter().chain(records(&log)));
    assert_eq!(
        want[&key(0)],
        Outcome::Detected,
        "the log's later record wins"
    );
    assert!(check(&dir, Some(&checkpoint), &log, Some(Some(want))));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every one-byte mutation of the log drops the altered record and every
/// record after it, and keeps every record before it.
#[test]
fn every_one_byte_mutation_of_the_log_drops_the_altered_record() {
    let (checkpoint, log) = real_files("log-mutation");
    let (cp, lg) = (checkpoint_records(&checkpoint).unwrap(), records(&log));
    let dir = scratch("log-mutation");
    for pos in 0..log.len() {
        let kept = index_of(cp.iter().chain(&lg[..pos / RECORD_LEN]).copied());
        for byte in (0..=255u8).filter(|&b| b != log[pos]) {
            let mut mutated = log.clone();
            mutated[pos] = byte;
            check(&dir, Some(&checkpoint), &mutated, Some(Some(kept.clone())));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_truncation_of_the_log_keeps_its_whole_records() {
    let (checkpoint, log) = real_files("log-truncation");
    let (cp, lg) = (checkpoint_records(&checkpoint).unwrap(), records(&log));
    let dir = scratch("log-truncation");
    for len in 0..log.len() {
        let kept = index_of(cp.iter().chain(&lg[..len / RECORD_LEN]).copied());
        check(&dir, Some(&checkpoint), &log[..len], Some(Some(kept)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint is only ever replaced atomically, so any byte of it
/// altered — header, record, count or checksum — is damage the store must
/// not paper over.
#[test]
fn every_one_byte_mutation_of_the_checkpoint_is_an_error() {
    let (checkpoint, log) = real_files("checkpoint-mutation");
    let dir = scratch("checkpoint-mutation");
    for pos in 0..checkpoint.len() {
        for byte in (0..=255u8).filter(|&b| b != checkpoint[pos]) {
            let mut mutated = checkpoint.clone();
            mutated[pos] = byte;
            check(&dir, Some(&mutated), &log, Some(None));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every truncation of a checkpoint is an error, wherever it cuts: the
/// trailer's count and checksum no longer match, or — cut inside the
/// header — the rest is no run of bare records.
#[test]
fn every_truncation_of_the_checkpoint_is_an_error() {
    let (checkpoint, log) = real_files("checkpoint-truncation");
    let dir = scratch("checkpoint-truncation");
    for len in 0..checkpoint.len() {
        check(&dir, Some(&checkpoint[..len]), &log, Some(None));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A bare checkpoint from before the framing opens to its records once,
/// and is framed from then on: every truncation of the migrated file is an
/// error.
#[test]
fn a_bare_checkpoint_is_migrated_to_a_framed_one() {
    let (checkpoint, log) = real_files("bare");
    let (cp, lg) = (checkpoint_records(&checkpoint).unwrap(), records(&log));
    let bare: Vec<u8> = cp.iter().flat_map(|(k, o)| encode_record(k, *o)).collect();
    let dir = scratch("bare");
    let want = index_of(cp.iter().chain(&lg).copied());
    assert!(check(&dir, Some(&bare), &log, Some(Some(want.clone()))));
    let migrated = std::fs::read(dir.join("checkpoint.bin")).unwrap();
    assert_eq!(checkpoint_records(&migrated).map(index_of), Some(want));
    assert!(migrated.starts_with(MAGIC));
    for len in 0..migrated.len() {
        check(&dir, Some(&migrated[..len]), &[], Some(None));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bytes built from `seeds`: mostly intact records, some runs of noise,
/// so the first bad record lands anywhere.
fn records_and_noise(seeds: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &s in seeds {
        if s % 5 == 0 {
            let noise = (s >> 8) % 40;
            bytes.extend((0..noise).map(|i| (s >> (i % 7 * 8)) as u8 ^ i as u8));
        } else {
            let i = (s >> 3) as u32 % 64;
            bytes.extend(encode_record(&key(i), OUTCOMES[(s >> 16) as usize % 5]));
        }
    }
    bytes
}

proptest! {
    #[test]
    fn arbitrary_log_bytes_open_to_their_intact_prefix(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let dir = scratch("arbitrary-log");
        check(&dir, None, &bytes, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arbitrary_checkpoint_bytes_open_or_err(
        cp in prop::collection::vec(any::<u8>(), 0..200),
        log in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let dir = scratch("arbitrary-checkpoint");
        check(&dir, Some(&cp), &log, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_with_noise_open_to_their_intact_prefix(
        cp in prop::collection::vec(any::<u64>(), 0..6),
        log in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let dir = scratch("noise");
        check(&dir, Some(&records_and_noise(&cp)), &records_and_noise(&log), None);
        check(&dir, None, &records_and_noise(&log), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
