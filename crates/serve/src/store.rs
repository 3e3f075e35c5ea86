//! The persistent, content-addressed outcome store.
//!
//! Every injection outcome the service ever computes is durably keyed by
//! *(kernel fingerprint, launch-config hash, fault model, fault site)* —
//! the complete set of inputs that determine the outcome on this
//! deterministic simulator. Any campaign (a resumed job, an identical
//! resubmission, an overlapping pruning config, a different seed hitting
//! the same sites) first drains cache hits from the store and only injects
//! the misses.
//!
//! # On-disk layout
//!
//! ```text
//! store/
//!   checkpoint.bin   full index snapshot, replaced by write-then-rename
//!   outcomes.log     fixed-size records appended since the checkpoint
//! ```
//!
//! Both files hold the same fixed 32-byte record format (little-endian
//! fields plus a 16-bit FNV checksum). The checkpoint frames its records:
//!
//! ```text
//! checkpoint.bin = "FSPCKPT\x01" ‖ record* ‖ count: u64 ‖ fnv: u64
//! ```
//!
//! with `count` the number of records and `fnv` the FNV-1a of everything
//! before it, both little-endian. Recovery loads the checkpoint, then
//! replays the log and truncates it at the first short or corrupt record —
//! a crash mid-append therefore loses at most the torn tail record, never
//! checkpointed state. [`OutcomeStore::checkpoint`] writes the whole index
//! to a temporary file, atomically renames it over `checkpoint.bin`, and
//! only then truncates the log; a crash between those steps merely replays
//! records that are already in the checkpoint (inserts are idempotent).
//! A checkpoint is only ever replaced whole, so one that is short, whose
//! count or checksum does not match, or that holds a record that does not
//! decode is damage, and opening the store fails.
//!
//! # Migration from bare checkpoints
//!
//! Checkpoints written before the header and trailer were bare records.
//! A `checkpoint.bin` without the header is read once under the old rules
//! — a whole number of records, each passing its own checksum — and the
//! store rewrites it in the framed format as it opens. An empty bare file
//! (the checkpoint of an empty store) cannot be told from a checkpoint cut
//! to nothing and is refused: remove it, since it holds no outcomes.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::PathBuf;

use fsp_stats::Outcome;

// The record codec lives in the fleet wire layer (`fsp_fleet::wire`):
// the on-disk record format *is* the distributed outcome-frame format, so
// a worker's submission decodes directly into store inserts, byte for
// byte.
pub use fsp_fleet::wire::OutcomeKey;
use fsp_fleet::wire::{decode_record, encode_record, RECORD_LEN};
use fsp_obs::Fnv1a;

/// The first bytes of a framed checkpoint.
const MAGIC: &[u8; 8] = b"FSPCKPT\x01";

/// Bytes after the records of a framed checkpoint: count and checksum.
const TRAILER_LEN: usize = 16;

fn corrupt(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corrupt store checkpoint: {what}"),
    )
}

/// The records of a checkpoint file, and whether it is a bare one written
/// before the framing, which the store migrates.
fn read_checkpoint(bytes: &[u8]) -> std::io::Result<(Vec<(OutcomeKey, Outcome)>, bool)> {
    let (body, bare) = match bytes.strip_prefix(MAGIC.as_slice()) {
        Some(rest) => {
            let split = rest
                .len()
                .checked_sub(TRAILER_LEN)
                .ok_or_else(|| corrupt("shorter than its header and trailer"))?;
            let (body, trailer) = rest.split_at(split);
            let (count, sum) = trailer.split_at(8);
            let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
            if !body.len().is_multiple_of(RECORD_LEN) || count != (body.len() / RECORD_LEN) as u64 {
                return Err(corrupt("its record count does not match its length"));
            }
            let mut fnv = Fnv1a::new();
            fnv.write(&bytes[..bytes.len() - 8]);
            if u64::from_le_bytes(sum.try_into().expect("8 bytes")) != fnv.finish() {
                return Err(corrupt("its checksum does not match"));
            }
            (body, false)
        }
        None if bytes.is_empty() => {
            return Err(corrupt(
                "empty (cut to nothing, or a bare checkpoint of an empty store: remove it)",
            ))
        }
        None if !bytes.len().is_multiple_of(RECORD_LEN) => {
            return Err(corrupt("no header, and not a whole number of bare records"))
        }
        None => (bytes, true),
    };
    let records = body
        .chunks(RECORD_LEN)
        .map(|r| decode_record(r).ok_or_else(|| corrupt("a record does not decode")))
        .collect::<std::io::Result<_>>()?;
    Ok((records, bare))
}

/// The on-disk outcome store: append-only log + atomic checkpoints, with
/// the full index held in memory for O(1) lookups.
#[derive(Debug)]
pub struct OutcomeStore {
    dir: PathBuf,
    index: HashMap<OutcomeKey, Outcome>,
    log: BufWriter<File>,
    appended: u64,
}

impl OutcomeStore {
    /// Opens (creating if absent) the store in `dir`, recovering from the
    /// checkpoint and the append log. A torn log tail — the footprint of a
    /// crash mid-append — is detected by record framing and checksum, and
    /// truncated away. A bare checkpoint from before the framing is
    /// rewritten in the framed format (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a corrupt *checkpoint* (which is only ever
    /// replaced atomically) is an error, not recoverable damage: short,
    /// with a count or checksum that does not match, or with a record that
    /// does not decode.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<OutcomeStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut index = HashMap::new();

        let checkpoint = dir.join("checkpoint.bin");
        let bare = if checkpoint.exists() {
            let (records, bare) = read_checkpoint(&std::fs::read(&checkpoint)?)?;
            index.extend(records);
            bare
        } else {
            false
        };

        let log_path = dir.join("outcomes.log");
        let mut valid_len = 0u64;
        if log_path.exists() {
            let bytes = std::fs::read(&log_path)?;
            for chunk in bytes.chunks(RECORD_LEN) {
                match decode_record(chunk) {
                    Some((key, outcome)) => {
                        index.insert(key, outcome);
                        valid_len += RECORD_LEN as u64;
                    }
                    // Torn tail: stop replaying and drop it below.
                    None => break,
                }
            }
            if valid_len != bytes.len() as u64 {
                OpenOptions::new()
                    .write(true)
                    .open(&log_path)?
                    .set_len(valid_len)?;
            }
        }

        let mut log_file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&log_path)?;
        log_file.seek(SeekFrom::Start(valid_len))?;
        let mut store = OutcomeStore {
            dir,
            index,
            log: BufWriter::new(log_file),
            appended: valid_len / RECORD_LEN as u64,
        };
        if bare {
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// Looks an outcome up.
    #[must_use]
    pub fn get(&self, key: &OutcomeKey) -> Option<Outcome> {
        self.index.get(key).copied()
    }

    /// Number of cached outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Records an outcome: updates the index and appends to the log.
    /// Callers batch inserts and then [`OutcomeStore::flush`] once per
    /// campaign chunk.
    ///
    /// # Errors
    ///
    /// Propagates log-append I/O errors.
    pub fn insert(&mut self, key: OutcomeKey, outcome: Outcome) -> std::io::Result<()> {
        if self.index.insert(key, outcome) != Some(outcome) {
            self.log.write_all(&encode_record(&key, outcome))?;
            self.appended += 1;
        }
        Ok(())
    }

    /// Flushes buffered log appends to the operating system.
    ///
    /// # Errors
    ///
    /// Propagates flush I/O errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.log.flush()
    }

    /// Log records appended since the last checkpoint (compaction
    /// heuristic input).
    #[must_use]
    pub fn appended_since_checkpoint(&self) -> u64 {
        self.appended
    }

    /// Writes the full index to a fresh checkpoint (write-then-rename, so
    /// the old checkpoint survives a crash at any point), then empties the
    /// log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        self.log.flush()?;
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut out = BufWriter::new(File::create(&tmp)?);
            let mut fnv = Fnv1a::new();
            let mut write = |bytes: &[u8]| {
                fnv.write(bytes);
                out.write_all(bytes)
            };
            write(MAGIC)?;
            // Deterministic order keeps checkpoints byte-stable for a
            // given index (useful for backups and tests).
            let mut entries: Vec<(&OutcomeKey, &Outcome)> = self.index.iter().collect();
            entries.sort_unstable_by_key(|(k, _)| **k);
            for (key, outcome) in &entries {
                write(&encode_record(key, **outcome))?;
            }
            write(&(entries.len() as u64).to_le_bytes())?;
            out.write_all(&fnv.finish().to_le_bytes())?;
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join("checkpoint.bin"))?;
        // A crash before this truncation only leaves log records that the
        // checkpoint already contains; replay is idempotent.
        self.log.get_ref().set_len(0)?;
        self.log.get_ref().sync_all()?;
        self.log.seek(SeekFrom::Start(0))?;
        self.appended = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_inject::{FaultModel, FaultSite};

    fn key(bit: u32) -> OutcomeKey {
        OutcomeKey::new(
            0xDEAD_BEEF_0102_0304,
            0x0505_0606_0707_0808,
            FaultModel::SingleBitFlip,
            FaultSite {
                tid: 7,
                dyn_idx: 21,
                bit,
            },
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persists_across_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut s = OutcomeStore::open(&dir).unwrap();
            s.insert(key(0), Outcome::Masked).unwrap();
            s.insert(key(1), Outcome::CRASH).unwrap();
            s.flush().unwrap();
        }
        let s = OutcomeStore::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&key(0)), Some(Outcome::Masked));
        assert_eq!(s.get(&key(1)), Some(Outcome::CRASH));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_inserts_do_not_grow_the_log() {
        let dir = tmp_dir("dedup");
        let mut s = OutcomeStore::open(&dir).unwrap();
        s.insert(key(0), Outcome::Masked).unwrap();
        s.insert(key(0), Outcome::Masked).unwrap();
        assert_eq!(s.appended_since_checkpoint(), 1);
        // A changed outcome for the same key is re-logged (last wins).
        s.insert(key(0), Outcome::Sdc).unwrap();
        assert_eq!(s.appended_since_checkpoint(), 2);
        s.flush().unwrap();
        drop(s);
        let s = OutcomeStore::open(&dir).unwrap();
        assert_eq!(s.get(&key(0)), Some(Outcome::Sdc));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The crash-safety contract: a checkpoint plus a log whose final
    /// record was torn mid-write must reopen with every complete record
    /// intact and only the torn tail dropped (and truncated away).
    #[test]
    fn torn_log_tail_drops_only_the_tail() {
        let dir = tmp_dir("torn");
        {
            let mut s = OutcomeStore::open(&dir).unwrap();
            s.insert(key(0), Outcome::Masked).unwrap();
            s.insert(key(1), Outcome::Sdc).unwrap();
            s.checkpoint().unwrap();
            for bit in 2..5 {
                s.insert(key(bit), Outcome::CRASH).unwrap();
            }
            s.flush().unwrap();
        }
        // Simulate a crash mid-append: tear the last record in half.
        let log = dir.join("outcomes.log");
        let bytes = std::fs::read(&log).unwrap();
        assert_eq!(bytes.len(), 3 * RECORD_LEN);
        std::fs::write(&log, &bytes[..2 * RECORD_LEN + RECORD_LEN / 2]).unwrap();

        let s = OutcomeStore::open(&dir).unwrap();
        assert_eq!(s.len(), 4, "checkpoint + 2 complete log records survive");
        for bit in 0..4 {
            assert!(s.get(&key(bit)).is_some(), "bit {bit} lost");
        }
        assert_eq!(s.get(&key(4)), None, "torn record must not resurface");
        assert_eq!(
            std::fs::metadata(&log).unwrap().len(),
            2 * RECORD_LEN as u64,
            "recovery truncates the log to the valid prefix"
        );

        // A corrupt (not just short) trailing record is dropped the same way.
        let mut bytes = std::fs::read(&log).unwrap();
        let flipped = bytes.len() - 5;
        bytes[flipped] ^= 0x10;
        std::fs::write(&log, &bytes).unwrap();
        let s = OutcomeStore::open(&dir).unwrap();
        assert_eq!(s.len(), 3, "corrupt record and nothing else dropped");
        assert_eq!(std::fs::metadata(&log).unwrap().len(), RECORD_LEN as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A bare checkpoint, as written before the header and trailer, opens
    /// to its records and is rewritten framed; an empty one is refused.
    #[test]
    fn bare_checkpoint_is_migrated_once() {
        let dir = tmp_dir("bare");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.bin");
        let bare = [
            encode_record(&key(0), Outcome::Sdc),
            encode_record(&key(1), Outcome::HANG),
        ]
        .concat();
        std::fs::write(&path, &bare).unwrap();
        let s = OutcomeStore::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&key(1)), Some(Outcome::HANG));
        drop(s);
        let framed = std::fs::read(&path).unwrap();
        assert_eq!(framed.len(), MAGIC.len() + bare.len() + TRAILER_LEN);
        assert_eq!(&framed[MAGIC.len()..MAGIC.len() + bare.len()], &bare[..]);
        assert_eq!(OutcomeStore::open(&dir).unwrap().len(), 2);
        std::fs::write(&path, []).unwrap();
        assert!(
            OutcomeStore::open(&dir).is_err(),
            "an empty checkpoint opened"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_log_then_reopen() {
        let dir = tmp_dir("checkpoint");
        {
            let mut s = OutcomeStore::open(&dir).unwrap();
            s.insert(key(0), Outcome::Masked).unwrap();
            s.checkpoint().unwrap();
            assert_eq!(s.appended_since_checkpoint(), 0);
            s.insert(key(1), Outcome::HANG).unwrap();
            s.flush().unwrap();
        }
        let s = OutcomeStore::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&key(1)), Some(Outcome::HANG));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
