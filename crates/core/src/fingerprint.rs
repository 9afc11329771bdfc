//! The deterministic FNV-1a fingerprint scheme shared by the bench binaries,
//! the CLI and the scenario-corpus goldens.
//!
//! CI's thread-determinism job diffs fingerprint strings across
//! `GDLOG_THREADS` legs, and the scenario corpus pins them in golden files,
//! so every producer must hash with the same constants; they all share this
//! one helper to make that impossible to break in only one place.

use std::fmt;

/// FNV-1a over a sequence of byte chunks, rendered as 16 hex digits.
pub fn fnv1a_fingerprint<I, B>(chunks: I) -> String
where
    I: IntoIterator<Item = B>,
    B: AsRef<[u8]>,
{
    let mut hash = Fnv1a::new();
    for chunk in chunks {
        hash.write(chunk.as_ref());
    }
    hash.finish()
}

/// The FNV-1a state of [`fnv1a_fingerprint`], fed incrementally. As a
/// [`fmt::Write`] sink it hashes what `write!` formats without building the
/// string, so a fingerprint can stream through `Display` impls.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash so far, as 16 hex digits.
    pub(crate) fn finish(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_does_not_matter_but_content_does() {
        assert_eq!(fnv1a_fingerprint(["ab", "c"]), fnv1a_fingerprint(["abc"]));
        assert_ne!(fnv1a_fingerprint(["abc"]), fnv1a_fingerprint(["abd"]));
        assert_eq!(fnv1a_fingerprint(["abc"]).len(), 16);
    }

    #[test]
    fn streamed_writes_hash_like_chunks() {
        use std::fmt::Write;
        let mut hash = Fnv1a::new();
        let key = "{{A(1)}}";
        write!(hash, "{key}@{};", 0.5).unwrap();
        assert_eq!(hash.finish(), fnv1a_fingerprint(["{{A(1)}}@0.5;"]));
    }

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(
            fnv1a_fingerprint(std::iter::empty::<&[u8]>()),
            "cbf29ce484222325"
        );
    }
}
