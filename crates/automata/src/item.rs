//! LR(0) items and item sets.

use std::sync::atomic::{AtomicUsize, Ordering};

use lalr_grammar::{Grammar, ProdId, Symbol};

/// Process-wide count of [`ItemSet`] clones, for the zero-copy interning
/// invariant test; see [`item_set_clone_count`].
static ITEM_SET_CLONES: AtomicUsize = AtomicUsize::new(0);

/// Number of [`ItemSet`] clones performed by this process so far.
///
/// `Lr0Automaton::build` interns kernels without cloning them; tests
/// assert that by sampling this counter before and after a build. Only
/// explicit `.clone()` calls count — moves and borrows do not.
pub fn item_set_clone_count() -> usize {
    ITEM_SET_CLONES.load(Ordering::Relaxed)
}

/// An LR(0) item `A → α · β`: a production plus a dot position.
///
/// # Examples
///
/// ```
/// use lalr_automata::Item;
/// use lalr_grammar::{parse_grammar, ProdId};
///
/// let g = parse_grammar("s : \"a\" \"b\" ;")?;
/// let item = Item::start_of(ProdId::new(1));
/// assert_eq!(item.display(&g), "s -> . a b");
/// let next = item.advanced();
/// assert_eq!(next.display(&g), "s -> a . b");
/// assert!(next.advanced().is_final(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item {
    prod: ProdId,
    dot: u32,
}

impl Item {
    /// The item with the dot at the far left of `prod`.
    pub fn start_of(prod: ProdId) -> Item {
        Item { prod, dot: 0 }
    }

    /// Creates an item with an explicit dot position.
    pub fn new(prod: ProdId, dot: usize) -> Item {
        Item {
            prod,
            dot: dot as u32,
        }
    }

    /// The production this item is over.
    #[inline]
    pub fn production(self) -> ProdId {
        self.prod
    }

    /// Dot position (0 = before the first symbol).
    #[inline]
    pub fn dot(self) -> usize {
        self.dot as usize
    }

    /// The symbol right after the dot, or `None` for a final item.
    pub fn next_symbol(self, grammar: &Grammar) -> Option<Symbol> {
        grammar.production(self.prod).rhs().get(self.dot()).copied()
    }

    /// The RHS suffix strictly after the next symbol (`γ` in `A → α · X γ`).
    ///
    /// # Panics
    ///
    /// Panics if the item is final.
    pub fn tail_after_next(self, grammar: &Grammar) -> &[Symbol] {
        &grammar.production(self.prod).rhs()[self.dot() + 1..]
    }

    /// `true` when the dot is at the far right (a reduction item).
    pub fn is_final(self, grammar: &Grammar) -> bool {
        self.dot() == grammar.production(self.prod).len()
    }

    /// `true` when the dot is at the far left.
    #[inline]
    pub fn is_initial(self) -> bool {
        self.dot == 0
    }

    /// The item with the dot moved one symbol right.
    ///
    /// The caller must ensure the item is not final (checked downstream by
    /// `next_symbol`).
    pub fn advanced(self) -> Item {
        Item {
            prod: self.prod,
            dot: self.dot + 1,
        }
    }

    /// Renders the item as `lhs -> α . β`.
    pub fn display(self, grammar: &Grammar) -> String {
        let p = grammar.production(self.prod);
        let mut parts: Vec<&str> = Vec::with_capacity(p.len() + 1);
        for (i, &s) in p.rhs().iter().enumerate() {
            if i == self.dot() {
                parts.push(".");
            }
            parts.push(grammar.name_of(s));
        }
        if self.is_final(grammar) {
            parts.push(".");
        }
        format!(
            "{} -> {}",
            grammar.nonterminal_name(p.lhs()),
            parts.join(" ")
        )
    }
}

/// A sorted, deduplicated set of items — the identity of an LR(0) state is
/// its kernel `ItemSet`.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct ItemSet {
    items: Vec<Item>,
}

impl Clone for ItemSet {
    fn clone(&self) -> ItemSet {
        ITEM_SET_CLONES.fetch_add(1, Ordering::Relaxed);
        ItemSet {
            items: self.items.clone(),
        }
    }
}

impl ItemSet {
    /// Builds a set from arbitrary items (sorts and dedups).
    pub fn new(mut items: Vec<Item>) -> ItemSet {
        items.sort_unstable();
        items.dedup();
        ItemSet { items }
    }

    /// Builds a set from items that are already strictly ascending, moving
    /// the buffer without a sort pass.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the items are not strictly ascending.
    pub fn from_sorted(items: Vec<Item>) -> ItemSet {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly ascending"
        );
        ItemSet { items }
    }

    /// Consumes the set, returning its item buffer (for buffer recycling).
    pub fn into_items(self) -> Vec<Item> {
        self.items
    }

    /// The items in sorted order.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when there are no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// The ε-closure of this set: adds `B → · γ` for every `B` after a dot,
    /// transitively.
    ///
    /// This is the item-by-item worklist, for closing one set on demand;
    /// `Lr0Automaton::build` closes every state from precomputed
    /// left-corner tables instead.
    pub fn closure(&self, grammar: &Grammar) -> ItemSet {
        let mut closed = self.items.clone();
        let mut work = self.items.clone();
        let mut added_nt = vec![false; grammar.nonterminal_count()];
        while let Some(item) = work.pop() {
            let Some(Symbol::NonTerminal(b)) = item.next_symbol(grammar) else {
                continue;
            };
            if std::mem::replace(&mut added_nt[b.index()], true) {
                continue;
            }
            for &pid in grammar.productions_of(b) {
                let fresh = Item::start_of(pid);
                closed.push(fresh);
                work.push(fresh);
            }
        }
        ItemSet::new(closed)
    }
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> ItemSet {
        ItemSet::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = Item;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Item>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_grammar::parse_grammar;

    #[test]
    fn item_navigation() {
        let g = parse_grammar("s : \"a\" \"b\" ;").unwrap();
        let i0 = Item::start_of(ProdId::new(1));
        assert!(i0.is_initial());
        assert_eq!(
            i0.next_symbol(&g),
            Some(Symbol::Terminal(g.terminal_by_name("a").unwrap()))
        );
        let i2 = i0.advanced().advanced();
        assert!(i2.is_final(&g));
        assert_eq!(i2.next_symbol(&g), None);
    }

    #[test]
    fn epsilon_production_item_is_final_and_initial() {
        let g = parse_grammar("s : ;").unwrap();
        let i = Item::start_of(ProdId::new(1));
        assert!(i.is_initial());
        assert!(i.is_final(&g));
        assert_eq!(i.display(&g), "s -> .");
    }

    #[test]
    fn itemset_sorts_and_dedups() {
        let a = Item::new(ProdId::new(2), 1);
        let b = Item::new(ProdId::new(1), 0);
        let set = ItemSet::new(vec![a, b, a]);
        assert_eq!(set.items(), &[b, a]);
        assert_eq!(set.len(), 2);
        assert!(set.contains(a));
        assert!(!set.contains(Item::new(ProdId::new(3), 0)));
    }

    #[test]
    fn closure_pulls_in_alternatives_transitively() {
        let g = parse_grammar("s : e ; e : e \"+\" t | t ; t : \"x\" ;").unwrap();
        let kernel = ItemSet::new(vec![Item::start_of(ProdId::START)]);
        let closed = kernel.closure(&g);
        // <start>→·s, s→·e, e→·e+t, e→·t, t→·x
        assert_eq!(closed.len(), 5);
        for item in &closed {
            assert!(item.is_initial());
        }
    }

    #[test]
    fn closure_of_final_items_is_identity() {
        let g = parse_grammar("s : \"a\" ;").unwrap();
        let kernel = ItemSet::new(vec![Item::new(ProdId::new(1), 1)]);
        assert_eq!(kernel.closure(&g), kernel);
    }

    #[test]
    fn tail_after_next() {
        let g = parse_grammar("s : \"a\" \"b\" \"c\" ;").unwrap();
        let i = Item::new(ProdId::new(1), 1);
        let tail = i.tail_after_next(&g);
        assert_eq!(tail.len(), 1);
        assert_eq!(g.name_of(tail[0]), "c");
    }
}
