//! Typed identifiers for the DEX-like container.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Index of a method in the [`DexFile`](crate::DexFile) method table.
    MethodId,
    "m"
);
id_type!(
    /// Index of a class in the [`DexFile`](crate::DexFile) class table.
    ClassId,
    "c"
);
id_type!(
    /// Index of an instance field; the runtime lays fields out at
    /// `8 * index` bytes past the object header.
    FieldId,
    "f"
);
id_type!(
    /// Index of a static field slot in the global statics area.
    StaticId,
    "s"
);

/// A virtual register of the DEX register machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u16);

impl VReg {
    /// The raw register number.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A set of virtual registers: one bit per register of a method,
/// `num_regs.div_ceil(64)` words (at least one). This type is the only
/// code that knows that layout. Every register it is given must be below
/// the `num_regs` it was sized for — the verifier's bounds check and
/// `calibro_hgraph::check` guarantee that for every method and graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// An empty set sized for `num_regs` registers.
    #[must_use]
    pub fn new(num_regs: u16) -> RegSet {
        RegSet { words: vec![0; RegSet::width(num_regs)] }
    }

    fn width(num_regs: u16) -> usize {
        usize::from(num_regs).div_ceil(64).max(1)
    }

    fn bit(r: VReg) -> (usize, u64) {
        (r.index() / 64, 1 << (r.index() % 64))
    }

    /// Returns `true` if `r` is in the set.
    #[must_use]
    pub fn contains(&self, r: VReg) -> bool {
        let (w, b) = RegSet::bit(r);
        self.words[w] & b != 0
    }

    /// Adds `r`.
    pub fn insert(&mut self, r: VReg) {
        let (w, b) = RegSet::bit(r);
        self.words[w] |= b;
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: VReg) {
        let (w, b) = RegSet::bit(r);
        self.words[w] &= !b;
    }

    /// Empties the set, keeping its size.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Adds every register of `other`.
    pub fn union_with(&mut self, other: &RegSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Sets `self` to `gen | (out & !kill)`, the backward-liveness
    /// transfer, and returns whether `self` changed.
    pub fn assign_transfer(&mut self, gen: &RegSet, out: &RegSet, kill: &RegSet) -> bool {
        let mut changed = false;
        for (i, w) in self.words.iter_mut().enumerate() {
            let next = gen.words[i] | (out.words[i] & !kill.words[i]);
            changed |= next != *w;
            *w = next;
        }
        changed
    }
}

/// `rows` register sets of one size in a single allocation (the
/// verifier's per-instruction state table).
pub(crate) struct RegTable {
    width: usize,
    words: Vec<u64>,
}

impl RegTable {
    pub(crate) fn new(rows: usize, num_regs: u16) -> RegTable {
        let width = RegSet::width(num_regs);
        RegTable { width, words: vec![0; rows * width] }
    }

    fn row(&mut self, row: usize) -> &mut [u64] {
        &mut self.words[row * self.width..][..self.width]
    }

    pub(crate) fn load(&mut self, row: usize, into: &mut RegSet) {
        into.words.copy_from_slice(self.row(row));
    }

    pub(crate) fn store(&mut self, row: usize, from: &RegSet) {
        self.row(row).copy_from_slice(&from.words);
    }

    /// Intersects `row` with `set`; returns whether the row shrank.
    pub(crate) fn meet(&mut self, row: usize, set: &RegSet) -> bool {
        let mut shrank = false;
        for (e, o) in self.row(row).iter_mut().zip(&set.words) {
            shrank |= *e & !o != 0;
            *e &= o;
        }
        shrank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(MethodId(3).to_string(), "m3");
        assert_eq!(ClassId(0).to_string(), "c0");
        assert_eq!(FieldId(7).to_string(), "f7");
        assert_eq!(VReg(12).to_string(), "v12");
    }

    #[test]
    fn regset_crosses_word_boundaries() {
        let mut s = RegSet::new(130);
        for r in [0, 63, 64, 127, 129] {
            s.insert(VReg(r));
        }
        assert!(s.contains(VReg(64)) && s.contains(VReg(129)) && !s.contains(VReg(65)));
        s.remove(VReg(64));
        assert!(!s.contains(VReg(64)) && s.contains(VReg(63)));
        let (mut gen, mut kill) = (RegSet::new(130), RegSet::new(130));
        gen.insert(VReg(128));
        kill.insert(VReg(0));
        let mut live = RegSet::new(130);
        assert!(live.assign_transfer(&gen, &s, &kill));
        assert!(!live.contains(VReg(0)) && live.contains(VReg(128)) && live.contains(VReg(127)));
        assert!(!live.assign_transfer(&gen, &s, &kill), "a repeated transfer is a fixpoint");
        let mut table = RegTable::new(2, 130);
        table.store(1, &s);
        assert!(table.meet(1, &live), "v0 leaves the row");
        table.load(1, &mut live);
        assert!(live.contains(VReg(129)) && !live.contains(VReg(0)) && live.contains(VReg(63)));
    }

    #[test]
    fn id_roundtrip() {
        let id = MethodId::from(9);
        assert_eq!(id.index(), 9);
    }
}
