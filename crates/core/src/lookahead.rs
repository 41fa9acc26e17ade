//! The common output type of every look-ahead method.

use lalr_automata::{Lr0Automaton, MergedLalr, ReductionId, ReductionIndex, StateId};
use lalr_bitset::{BitMatrix, BitSet, BitSetRef, RowLayout};
use lalr_grammar::{ProdId, Terminal};

/// Look-ahead sets for every reduction point `(state, production)`.
///
/// All five methods in this suite (DeRemer–Pennello, SLR(1), NQLALR(1),
/// yacc-style propagation, canonical-LR(1)-merge) produce this type, so
/// conflict detection, classification and cross-validation are method
/// agnostic.
///
/// Storage is dense: a [`ReductionIndex`] enumerates the automaton's
/// reduction points once, and the sets live as rows of one [`BitMatrix`]
/// indexed by [`ReductionId`] — no per-entry allocation, no hashing on
/// lookup. A *present* bit per row distinguishes "recorded as empty"
/// (e.g. a reduction the method proved unreachable on any terminal) from
/// "never recorded", preserving the sparse semantics of the old
/// hash-keyed representation: [`LookaheadSets::la`] answers `None` for
/// reduction points the producing method never touched.
#[derive(Debug, Clone)]
pub struct LookaheadSets {
    index: ReductionIndex,
    /// One row per reduction point, `terminals` columns.
    rows: BitMatrix,
    /// Which rows have been recorded (touched / unioned / inserted).
    present: BitSet,
    terminals: usize,
}

impl LookaheadSets {
    /// Creates an empty collection over the reduction points of `index`
    /// and an alphabet of `terminals`.
    pub fn with_index(index: ReductionIndex, terminals: usize) -> LookaheadSets {
        let n = index.len();
        LookaheadSets {
            index,
            rows: BitMatrix::new(n, terminals),
            present: BitSet::new(n),
            terminals,
        }
    }

    /// Creates an empty collection covering every reduction point of an
    /// automaton.
    pub fn for_automaton(lr0: &Lr0Automaton, terminals: usize) -> LookaheadSets {
        LookaheadSets::with_index(ReductionIndex::from_lr0(lr0), terminals)
    }

    /// Creates an empty collection over an explicit list of reduction
    /// points, for callers without an automaton at hand.
    pub fn from_points(
        points: impl IntoIterator<Item = (StateId, ProdId)>,
        terminals: usize,
    ) -> LookaheadSets {
        LookaheadSets::with_index(ReductionIndex::from_points(points), terminals)
    }

    /// Size of the terminal alphabet (universe of each set).
    pub fn terminal_count(&self) -> usize {
        self.terminals
    }

    /// The [`RowLayout`] the per-reduction rows dispatch under —
    /// fixed-64 / fixed-128 for narrow alphabets, multi-word otherwise.
    pub fn layout(&self) -> RowLayout {
        self.rows.layout()
    }

    /// The dense enumeration of reduction points backing this collection.
    pub fn reduction_index(&self) -> &ReductionIndex {
        &self.index
    }

    /// The dense id of `(state, prod)` within this collection's universe
    /// of reduction points (whether or not it has been recorded).
    #[inline]
    pub fn id_of(&self, state: StateId, prod: ProdId) -> Option<ReductionId> {
        self.index.id(state, prod)
    }

    /// The look-ahead set for reducing `prod` in `state`, if recorded.
    pub fn la(&self, state: StateId, prod: ProdId) -> Option<BitSetRef<'_>> {
        let id = self.index.id(state, prod)?;
        if self.present.contains(id.index()) {
            Some(self.rows.row(id.index()))
        } else {
            None
        }
    }

    fn require(&self, state: StateId, prod: ProdId) -> ReductionId {
        self.index.id(state, prod).unwrap_or_else(|| {
            panic!(
                "({}, {}) is not a reduction point of this collection",
                state.index(),
                prod.index()
            )
        })
    }

    /// Unions `set` into the entry for `(state, prod)`, recording it if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `set`'s universe differs from the alphabet size, or if
    /// `(state, prod)` is not a reduction point of this collection.
    pub fn union_into(&mut self, state: StateId, prod: ProdId, set: &BitSet) {
        assert_eq!(set.len(), self.terminals, "alphabet mismatch");
        let id = self.require(state, prod);
        self.present.insert(id.index());
        self.rows.union_row_with_words(id.index(), set.as_words());
    }

    /// Allocation-free row union by dense id — the hot path of the
    /// Digraph pipeline's LA phase (`words` is typically a `Follow`
    /// matrix row).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (and, in debug builds, if `words`
    /// is not exactly an alphabet-wide row).
    #[inline]
    pub fn union_words(&mut self, id: ReductionId, words: &[usize]) {
        self.present.insert(id.index());
        self.rows.union_row_with_words(id.index(), words);
    }

    /// Inserts a single terminal into the entry for `(state, prod)`.
    ///
    /// # Panics
    ///
    /// Panics if `(state, prod)` is not a reduction point of this
    /// collection.
    pub fn insert(&mut self, state: StateId, prod: ProdId, t: Terminal) {
        let id = self.require(state, prod);
        self.present.insert(id.index());
        self.rows.set(id.index(), t.index());
    }

    /// Ensures an (empty) entry is recorded for `(state, prod)`.
    ///
    /// # Panics
    ///
    /// Panics if `(state, prod)` is not a reduction point of this
    /// collection.
    pub fn touch(&mut self, state: StateId, prod: ProdId) {
        let id = self.require(state, prod);
        self.present.insert(id.index());
    }

    /// [`LookaheadSets::touch`] by dense id.
    #[inline]
    pub fn touch_id(&mut self, id: ReductionId) {
        self.present.insert(id.index());
    }

    /// Number of reduction points recorded.
    pub fn reduction_count(&self) -> usize {
        self.present.count()
    }

    /// Iterates over `((state, production), la)` entries, in dense-id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = ((StateId, ProdId), BitSetRef<'_>)> {
        self.present
            .iter()
            .map(|i| (self.index.point(ReductionId::new(i)), self.rows.row(i)))
    }

    /// Sum of all set cardinalities (a size measure used by the evaluation).
    pub fn total_bits(&self) -> usize {
        self.present.iter().map(|i| self.rows.row_count(i)).sum()
    }

    /// `true` when every entry of `self` equals the corresponding entry of
    /// `other` and vice versa (order-independent equality is already given
    /// by `==`; this exists for readable assertion messages).
    pub fn agrees_with(&self, other: &LookaheadSets) -> bool {
        self == other
    }
}

/// Equality compares the *recorded entries*, independent of how each
/// collection's reduction universe was enumerated — a set built over a
/// full automaton index equals one built from explicit points as long as
/// the recorded `(state, prod) → la` mappings match.
impl PartialEq for LookaheadSets {
    fn eq(&self, other: &LookaheadSets) -> bool {
        self.terminals == other.terminals
            && self.reduction_count() == other.reduction_count()
            && self
                .iter()
                .all(|((state, prod), set)| other.la(state, prod) == Some(set))
    }
}

impl Eq for LookaheadSets {}

impl From<&MergedLalr> for LookaheadSets {
    fn from(merged: &MergedLalr) -> LookaheadSets {
        let mut terminals = 0;
        for (_, set) in merged.iter() {
            terminals = terminals.max(set.len());
        }
        let mut out = LookaheadSets::from_points(merged.iter().map(|(&key, _)| key), terminals);
        for (&(state, prod), set) in merged.iter() {
            out.union_into(state, prod, set);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_lookup() {
        let key = (StateId::new(3), ProdId::new(2));
        let mut las = LookaheadSets::from_points([key], 8);
        las.insert(key.0, key.1, Terminal::new(1));
        las.union_into(key.0, key.1, &BitSet::from_indices(8, [4, 5]));
        let set = las.la(key.0, key.1).unwrap();
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1, 4, 5]);
        assert_eq!(las.reduction_count(), 1);
        assert_eq!(las.total_bits(), 3);
        assert!(las.la(StateId::new(0), ProdId::new(0)).is_none());
    }

    #[test]
    fn touch_creates_empty_entry() {
        let key = (StateId::new(0), ProdId::new(1));
        let mut las = LookaheadSets::from_points([key], 4);
        assert!(
            las.la(key.0, key.1).is_none(),
            "untouched points are absent"
        );
        las.touch(key.0, key.1);
        assert!(las.la(key.0, key.1).unwrap().is_empty());
        assert_eq!(las.reduction_count(), 1);
    }

    #[test]
    #[should_panic(expected = "alphabet mismatch")]
    fn union_checks_universe() {
        let key = (StateId::new(0), ProdId::new(0));
        let mut las = LookaheadSets::from_points([key], 4);
        las.union_into(key.0, key.1, &BitSet::new(5));
    }

    #[test]
    #[should_panic(expected = "not a reduction point")]
    fn union_checks_reduction_point() {
        let mut las = LookaheadSets::from_points([(StateId::new(0), ProdId::new(0))], 4);
        las.union_into(StateId::new(9), ProdId::new(9), &BitSet::new(4));
    }

    #[test]
    fn equality_is_order_and_layout_independent() {
        let k0 = (StateId::new(0), ProdId::new(0));
        let k1 = (StateId::new(1), ProdId::new(1));
        let mut a = LookaheadSets::from_points([k0, k1], 4);
        // `b` enumerates an extra, never-recorded point, so its dense ids
        // differ from `a`'s — equality must not care.
        let mut b = LookaheadSets::from_points([k0, (StateId::new(0), ProdId::new(3)), k1], 4);
        a.insert(k0.0, k0.1, Terminal::new(1));
        a.insert(k1.0, k1.1, Terminal::new(2));
        b.insert(k1.0, k1.1, Terminal::new(2));
        b.insert(k0.0, k0.1, Terminal::new(1));
        assert!(a.agrees_with(&b));
        assert!(b.agrees_with(&a));
        b.touch(StateId::new(0), ProdId::new(3));
        assert!(
            !a.agrees_with(&b),
            "an extra recorded entry breaks equality"
        );
    }

    #[test]
    fn union_words_matches_union_into() {
        let key = (StateId::new(2), ProdId::new(1));
        let mut by_set = LookaheadSets::from_points([key], 70);
        let mut by_words = LookaheadSets::from_points([key], 70);
        let set = BitSet::from_indices(70, [0, 65]);
        by_set.union_into(key.0, key.1, &set);
        let id = by_words.id_of(key.0, key.1).unwrap();
        by_words.union_words(id, set.as_words());
        assert_eq!(by_set, by_words);
    }
}
