//! Versioned checkpoint serialization for pausable simulation sessions.
//!
//! A [`Checkpoint`] is a flat sequence of `u64` words produced by walking
//! every stateful layer of a running session — scheduler slabs, controller
//! bank state, mitigation trackers, timing rings, RNG stream positions and
//! per-core frontends — through a [`SnapshotWriter`]. The byte encoding is
//! an 8-byte magic (`MINTCKPT`), a version word, a length word, and the
//! words in little-endian order, so a checkpoint written by one process can
//! be restored bit-identically in a fresh one (see
//! [`Session::resume`](crate::Session::resume)).
//!
//! The format is intentionally exact rather than canonical: anything whose
//! in-memory order can influence a later decision (the scheduler's active
//! list, PARFM's RNG-indexed buffer, PrIDE's FIFO) is serialized in its
//! current order, so the restored process replays the straight run to the
//! last `f64` bit.

/// Version word embedded in every serialized checkpoint. Bumped whenever
/// the word layout of any layer changes incompatibly.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Magic prefix identifying a serialized checkpoint.
const MAGIC: &[u8; 8] = b"MINTCKPT";

/// An opaque, restorable capture of a paused session.
///
/// Produced by [`Session::run_until`](crate::Session::run_until); consumed
/// by [`Session::resume`](crate::Session::resume). Serialize with
/// [`to_bytes`](Self::to_bytes) to move it across processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) words: Vec<u64>,
}

impl Checkpoint {
    /// Number of `u64` state words in the checkpoint (excluding framing).
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Serializes the checkpoint: magic, version, word count, then each
    /// word in little-endian order.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 16 + 8 * self.words.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses a checkpoint previously produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a description of the first framing problem found: missing or
    /// wrong magic, unsupported version, or a truncated word stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let Some((magic, rest)) = bytes.split_first_chunk::<8>() else {
            return Err("checkpoint shorter than its magic".to_string());
        };
        if magic != MAGIC {
            return Err("not a MINT checkpoint (bad magic)".to_string());
        }
        let Some((version, rest)) = rest.split_first_chunk::<8>() else {
            return Err("checkpoint truncated before version".to_string());
        };
        let version = u64::from_le_bytes(*version);
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let Some((count, rest)) = rest.split_first_chunk::<8>() else {
            return Err("checkpoint truncated before word count".to_string());
        };
        let count = usize::try_from(u64::from_le_bytes(*count))
            .map_err(|_| "checkpoint word count overflows usize".to_string())?;
        if rest.len() != 8 * count {
            return Err(format!(
                "checkpoint body is {} bytes, expected {} for {count} words",
                rest.len(),
                8 * count
            ));
        }
        let words = rest
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        Ok(Self { words })
    }
}

/// Accumulates checkpoint state as a flat word stream.
///
/// Each push helper widens its value to a `u64`; the matching
/// [`SnapshotReader`] take must be called in the same order.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    words: Vec<u64>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw word.
    pub fn push(&mut self, w: u64) {
        self.words.push(w);
    }

    /// Appends a `u32`, widened.
    pub fn push_u32(&mut self, v: u32) {
        self.words.push(u64::from(v));
    }

    /// Appends a bool as 0/1.
    pub fn push_bool(&mut self, b: bool) {
        self.words.push(u64::from(b));
    }

    /// Appends an `f64` by bit pattern (exact, not lossy).
    pub fn push_f64(&mut self, v: f64) {
        self.words.push(v.to_bits());
    }

    /// Appends an optional word as a presence flag plus the value (0 when
    /// absent, to keep the stream length independent of the payload).
    pub fn push_opt(&mut self, v: Option<u64>) {
        self.push_bool(v.is_some());
        self.words.push(v.unwrap_or(0));
    }

    /// Appends a length-prefixed word slice.
    pub fn push_words(&mut self, ws: &[u64]) {
        self.words.push(ws.len() as u64);
        self.words.extend_from_slice(ws);
    }

    /// Consumes the writer into a [`Checkpoint`].
    #[must_use]
    pub fn into_checkpoint(self) -> Checkpoint {
        Checkpoint { words: self.words }
    }
}

/// Cursor over a checkpoint's word stream; the mirror of [`SnapshotWriter`].
///
/// Every take validates bounds and range so a corrupted or mismatched
/// checkpoint surfaces as an `Err` instead of silently wrong state.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over a word stream.
    #[must_use]
    pub fn new(words: &'a [u64]) -> Self {
        Self { words, pos: 0 }
    }

    /// Takes the next raw word.
    ///
    /// # Errors
    ///
    /// Errors when the stream is exhausted.
    pub fn take(&mut self) -> Result<u64, String> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("checkpoint truncated at word {}", self.pos))?;
        self.pos += 1;
        Ok(w)
    }

    /// Takes a word and narrows it to `u32`.
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or if the word exceeds `u32::MAX`.
    pub fn take_u32(&mut self) -> Result<u32, String> {
        let w = self.take()?;
        u32::try_from(w).map_err(|_| format!("checkpoint word {w:#x} exceeds u32"))
    }

    /// Takes a word and interprets it as a bool (must be 0 or 1).
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or a value other than 0/1.
    pub fn take_bool(&mut self) -> Result<bool, String> {
        match self.take()? {
            0 => Ok(false),
            1 => Ok(true),
            w => Err(format!("checkpoint word {w} is not a bool")),
        }
    }

    /// Takes a word as an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Errors on exhaustion.
    pub fn take_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.take()?))
    }

    /// Takes an optional word written by [`SnapshotWriter::push_opt`].
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or a malformed presence flag.
    pub fn take_opt(&mut self) -> Result<Option<u64>, String> {
        let present = self.take_bool()?;
        let v = self.take()?;
        Ok(present.then_some(v))
    }

    /// Takes a length-prefixed word slice written by
    /// [`SnapshotWriter::push_words`].
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or if the prefix runs past the stream.
    pub fn take_words(&mut self) -> Result<&'a [u64], String> {
        let len = usize::try_from(self.take()?)
            .map_err(|_| "checkpoint slice length overflows usize".to_string())?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.words.len())
            .ok_or_else(|| {
                format!(
                    "checkpoint slice of {len} words truncated at word {}",
                    self.pos
                )
            })?;
        let ws = &self.words[self.pos..end];
        self.pos = end;
        Ok(ws)
    }

    /// Asserts every word has been consumed — catches writer/reader drift.
    ///
    /// # Errors
    ///
    /// Errors when trailing words remain.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(format!(
                "checkpoint has {} unread trailing words",
                self.words.len() - self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let mut w = SnapshotWriter::new();
        w.push(7);
        w.push_u32(42);
        w.push_bool(true);
        w.push_f64(0.125);
        w.push_opt(None);
        w.push_opt(Some(9));
        w.push_words(&[1, 2, 3]);
        let ckpt = w.into_checkpoint();
        let back = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("round trip");
        assert_eq!(back, ckpt);

        let mut r = SnapshotReader::new(&back.words);
        assert_eq!(r.take().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 42);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap().to_bits(), 0.125f64.to_bits());
        assert_eq!(r.take_opt().unwrap(), None);
        assert_eq!(r.take_opt().unwrap(), Some(9));
        assert_eq!(r.take_words().unwrap(), &[1, 2, 3]);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn framing_errors_are_described() {
        assert!(Checkpoint::from_bytes(b"short")
            .unwrap_err()
            .contains("magic"));
        assert!(Checkpoint::from_bytes(b"NOTMAGIC\0\0\0\0\0\0\0\0")
            .unwrap_err()
            .contains("bad magic"));
        let mut bad_version = MAGIC.to_vec();
        bad_version.extend_from_slice(&99u64.to_le_bytes());
        bad_version.extend_from_slice(&0u64.to_le_bytes());
        assert!(Checkpoint::from_bytes(&bad_version)
            .unwrap_err()
            .contains("version 99"));
        let mut truncated = MAGIC.to_vec();
        truncated.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        truncated.extend_from_slice(&4u64.to_le_bytes());
        truncated.extend_from_slice(&1u64.to_le_bytes());
        assert!(Checkpoint::from_bytes(&truncated)
            .unwrap_err()
            .contains("expected 32"));
    }

    #[test]
    fn reader_rejects_malformed_streams() {
        let words = [2u64, 5];
        let mut r = SnapshotReader::new(&words);
        assert!(r.take_bool().unwrap_err().contains("not a bool"));
        let mut r = SnapshotReader::new(&words);
        assert!(r.take_words().unwrap_err().contains("truncated"));
        let overflow = [u64::from(u32::MAX) + 1];
        let mut r = SnapshotReader::new(&overflow);
        assert!(r.take_u32().unwrap_err().contains("exceeds u32"));
        let r = SnapshotReader::new(&words);
        assert!(r.finish().unwrap_err().contains("trailing"));
    }
}
