//! String interning.
//!
//! Predicate names, constant symbols and variable names are interned into a
//! global, thread-safe [`Interner`] so that the rest of the workspace can
//! compare and hash them as `u32` handles ([`Symbol`]).
//!
//! Interned strings live for the lifetime of the process (they are leaked on
//! first interning), which lets [`Symbol::as_str`] hand out `&'static str`
//! without allocating. Reads take no lock either: each string is published
//! once, under the interner's write lock, into an append-only table of
//! write-once slots, and [`Symbol::as_str`], [`Symbol`]'s `Ord` and
//! `Display` read that table directly. Canonical sorts compare symbols by
//! string on every cross-predicate comparison, so a lock there would be
//! taken millions of times per solve.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A handle to an interned string.
///
/// Symbols are cheap to copy, compare and hash. Two symbols are equal iff the
/// strings they intern are equal (interning is global per process).
///
/// Ordering is **lexicographic on the interned string**, not by interning
/// index: every canonical sort downstream (model-set event keys, program
/// fingerprints, golden JSON reports) goes through this `Ord`, and
/// interning-index order is an accident of process history — two processes
/// that compile programs in different orders must still render identical
/// canonical output. Equality stays the O(1) index compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl Symbol {
    /// Intern `name` and return its symbol.
    pub fn new(name: &str) -> Self {
        global().intern(name)
    }

    /// The raw index of this symbol in the global interner.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Resolve the symbol back to its string without allocating.
    pub fn as_str(self) -> &'static str {
        global().resolve(self)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

/// A thread-safe string interner.
///
/// Most users never construct one directly: [`Symbol::new`] uses a global
/// instance. A standalone interner is still exposed for tests and tools that
/// need isolated symbol tables. Interned strings are leaked (they live until
/// process exit even if the interner is dropped); the set of distinct
/// predicate, variable and constant names is small and bounded in practice.
///
/// Interning takes the write lock only for a name seen for the first time;
/// resolving a symbol takes no lock at all. Strings are resolved through a
/// table of chunks, chunk `k` holding `64 · 2^k` write-once slots, so the
/// table grows without ever moving a published slot.
pub struct Interner {
    ids: RwLock<HashMap<&'static str, u32>>,
    chunks: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS],
}

/// Slots in chunk 0; chunk `k` holds `FIRST_CHUNK << k`.
const FIRST_CHUNK: usize = 64;

/// Enough chunks for every `u32` index: `64 · (2^27 − 1) > 2^32`.
const CHUNKS: usize = 27;

/// The chunk and the offset in it of the slot for symbol `index`: chunk `k`
/// starts at index `64 · (2^k − 1)`.
fn slot_of(index: u32) -> (usize, usize) {
    let i = index as usize / FIRST_CHUNK + 1;
    let chunk = (usize::BITS - 1 - i.leading_zeros()) as usize;
    (chunk, index as usize - FIRST_CHUNK * ((1 << chunk) - 1))
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            ids: RwLock::default(),
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its (stable) symbol.
    pub fn intern(&self, name: &str) -> Symbol {
        if let Some(&idx) = self.ids.read().get(name) {
            return Symbol(idx);
        }
        let mut ids = self.ids.write();
        if let Some(&idx) = ids.get(name) {
            return Symbol(idx);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let idx = u32::try_from(ids.len()).expect("fewer than 2^32 interned strings");
        // Publish the slot before the id escapes: any thread holding the
        // symbol got it from this map, or from a thread that did.
        let (chunk, offset) = slot_of(idx);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        slots[offset]
            .set(leaked)
            .expect("a fresh id's slot is written once, under the write lock");
        ids.insert(leaked, idx);
        Symbol(idx)
    }

    /// Resolve a symbol previously returned by [`Interner::intern`], without
    /// taking a lock.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was interned by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        let (chunk, offset) = slot_of(sym.0);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[offset].get())
            .expect("symbol interned by this interner")
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.ids.read().len()
    }

    /// Whether no strings have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("Router");
        let b = Symbol::new("Router");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "Router");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::new("Infected");
        let b = Symbol::new("Uninfected");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "Infected");
        assert_eq!(b.as_str(), "Uninfected");
    }

    #[test]
    fn as_str_is_stable_and_static() {
        let a = Symbol::new("StablePointer");
        let s1: &'static str = a.as_str();
        let s2: &'static str = a.as_str();
        // Same leaked allocation both times: no per-call String.
        assert!(std::ptr::eq(s1, s2));
    }

    #[test]
    fn standalone_interner_is_isolated() {
        let interner = Interner::new();
        let a = interner.intern("x");
        let b = interner.intern("y");
        let a2 = interner.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
        assert_eq!(interner.resolve(b), "y");
    }

    #[test]
    fn display_and_debug_show_the_string() {
        let s = Symbol::new("Connected");
        assert_eq!(format!("{s}"), "Connected");
        assert_eq!(format!("{s:?}"), "\"Connected\"");
    }

    #[test]
    fn symbols_are_ordered_lexicographically() {
        // Interning order must not leak into the canonical order: `zeta`
        // interned before `alpha` still sorts after it.
        let a = Symbol::new("zeta-ordering-test");
        let b = Symbol::new("alpha-ordering-test");
        assert!(b < a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        assert_eq!(
            a.partial_cmp(&b),
            Some(std::cmp::Ordering::Greater),
            "partial_cmp must agree with cmp"
        );
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "FromStr".into();
        let b: Symbol = String::from("FromStr").into();
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let interner = std::sync::Arc::new(Interner::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let interner = interner.clone();
            handles.push(std::thread::spawn(move || {
                let mut syms = Vec::new();
                for i in 0..100 {
                    syms.push(interner.intern(&format!("sym{}", (i + t) % 50)));
                }
                syms
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // (i + t) % 50 always lies in 0..50, so exactly 50 distinct strings.
        assert_eq!(interner.len(), 50);
    }

    #[test]
    fn standalone_interner_resolves_across_chunk_boundaries() {
        let interner = Interner::new();
        let names: Vec<String> = (0..460).map(|i| format!("boundary-{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| interner.intern(n)).collect();
        for i in [0, 63, 64, 191, 192, 447, 448] {
            assert_eq!(syms[i].index(), i as u32);
            assert_eq!(interner.resolve(syms[i]), names[i], "id {i}");
        }
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(63), (0, 63));
        assert_eq!(slot_of(64), (1, 0));
        assert_eq!(slot_of(191), (1, 127));
        assert_eq!(slot_of(192), (2, 0));
        assert_eq!(slot_of(447), (2, 255));
        assert_eq!(slot_of(448), (3, 0));
        assert_eq!(slot_of(u32::MAX).0, CHUNKS - 1);
    }

    #[test]
    #[should_panic(expected = "symbol interned by this interner")]
    fn resolving_a_foreign_symbol_panics() {
        Interner::new().resolve(Symbol(5));
    }

    #[test]
    fn symbol_reads_race_interning() {
        // Two threads intern the same fresh names in opposite orders while
        // two others resolve and compare every symbol published so far.
        const N: usize = 1500;
        let names: Vec<String> = (0..N).map(|i| format!("symbol-race-{i:05}")).collect();
        let published = std::sync::Mutex::new(Vec::<(Symbol, usize)>::new());
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for reverse in [false, true] {
                let (names, published, done) = (&names, &published, &done);
                scope.spawn(move || {
                    for k in 0..N {
                        let i = if reverse { N - 1 - k } else { k };
                        let sym = Symbol::new(&names[i]);
                        published.lock().unwrap().push((sym, i));
                    }
                    done.fetch_add(1, std::sync::atomic::Ordering::Release);
                });
            }
            for _ in 0..2 {
                let (names, published, done) = (&names, &published, &done);
                scope.spawn(move || loop {
                    let finished = done.load(std::sync::atomic::Ordering::Acquire) == 2;
                    let seen = published.lock().unwrap().clone();
                    for pair in seen.windows(2) {
                        let ((a, i), (b, j)) = (pair[0], pair[1]);
                        assert_eq!(a.as_str(), names[i]);
                        assert_eq!(a.cmp(&b), names[i].cmp(&names[j]));
                    }
                    if finished {
                        break;
                    }
                });
            }
        });
        let seen = published.into_inner().unwrap();
        assert_eq!(seen.len(), 2 * N);
        let mut syms: Vec<Symbol> = seen.iter().map(|&(s, _)| s).collect();
        syms.sort();
        syms.dedup();
        assert_eq!(syms.len(), N, "both threads got the same symbol per name");
        let sorted: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        let expected: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(sorted, expected, "the order stays lexicographic");
    }
}
