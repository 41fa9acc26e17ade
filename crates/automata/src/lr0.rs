//! The canonical LR(0) collection.

use std::hash::{Hash, Hasher};

use lalr_grammar::{Grammar, NonTerminal, ProdId, Symbol, Terminal};
use lalr_obs::Recorder;
use rustc_hash::FxHasher;

use crate::item::{Item, ItemSet};

/// Identifier of an LR(0) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// The start state.
    pub const START: StateId = StateId(0);

    /// Creates a state id from a raw index.
    #[inline]
    pub fn new(index: usize) -> StateId {
        StateId(index as u32)
    }

    /// The index into the automaton's state table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a *nonterminal transition* `(p, A)` — the node set of the
/// DeRemer–Pennello relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NtTransId(pub(crate) u32);

impl NtTransId {
    /// Creates an id from a raw index.
    #[inline]
    pub fn new(index: usize) -> NtTransId {
        NtTransId(index as u32)
    }

    /// The index into [`Lr0Automaton::nt_transitions`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A nonterminal transition `p --A--> q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NtTransition {
    /// Source state `p`.
    pub from: StateId,
    /// The nonterminal `A`.
    pub nt: NonTerminal,
    /// Target state `q = GOTO(p, A)`.
    pub to: StateId,
}

#[derive(Debug, Clone)]
struct State {
    kernel: ItemSet,
    /// Transitions sorted by symbol for binary search.
    transitions: Vec<(Symbol, StateId)>,
    /// Final items of the closure (reductions available here).
    reductions: Vec<ProdId>,
    /// The symbol every in-edge of this state is labelled with (`None` only
    /// for the start state).
    accessing_symbol: Option<Symbol>,
}

/// The canonical LR(0) collection of a grammar.
///
/// # Examples
///
/// ```
/// use lalr_automata::{Lr0Automaton, StateId};
/// use lalr_grammar::{parse_grammar, Symbol};
///
/// let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;")?;
/// let lr0 = Lr0Automaton::build(&g);
/// let plus = Symbol::Terminal(g.terminal_by_name("+").unwrap());
/// let after_e = lr0
///     .transition(StateId::START, Symbol::NonTerminal(g.start()))
///     .unwrap();
/// assert!(lr0.transition(after_e, plus).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lr0Automaton {
    states: Vec<State>,
    nt_transitions: Vec<NtTransition>,
    /// CSR offsets: the nonterminal transitions out of state `s` are
    /// `nt_transitions[nt_offsets[s] .. nt_offsets[s + 1]]`, sorted by
    /// nonterminal (per-state transitions are symbol-sorted and ids are
    /// assigned in `(state, nt)` order).
    nt_offsets: Vec<u32>,
}

/// Dense symbol code of an item with nothing after its dot.
const FINAL: u32 = u32::MAX;
/// An empty slot of the kernel table.
const NO_STATE: u32 = u32::MAX;

/// The per-grammar tables the LR(0) build closes states with. All of them
/// are linear in the grammar: one entry per item, at most one left-corner
/// edge and one production mask per production, nothing keyed by pairs of
/// symbols.
struct ClosureTables {
    /// Item `(p, dot)` is `item_off[p] + dot` in `next`.
    item_off: Vec<u32>,
    /// The dense code of each item's next symbol — terminal `t` is `t`,
    /// nonterminal `n` is `terminal_count + n` — or [`FINAL`].
    next: Vec<u32>,
    terminal_count: u32,
    /// CSR left-corner graph: the distinct `B` with a production
    /// `A → B η` are `corners[corner_off[A] .. corner_off[A + 1]]`.
    corner_off: Vec<u32>,
    corners: Vec<u32>,
    /// CSR production masks: `A`'s productions, as `(word, bits)` pairs of
    /// a production bitset, are `masks[mask_off[A] .. mask_off[A + 1]]`
    /// (one pair per word, so usually one or two per nonterminal).
    mask_off: Vec<u32>,
    masks: Vec<(u32, u64)>,
}

impl ClosureTables {
    fn new(grammar: &Grammar) -> ClosureTables {
        let terminal_count = grammar.terminal_count() as u32;
        let dense = |sym: Symbol| match sym {
            Symbol::Terminal(t) => t.index() as u32,
            Symbol::NonTerminal(n) => terminal_count + n.index() as u32,
        };
        let mut item_off = Vec::with_capacity(grammar.production_count());
        let mut next = Vec::new();
        for p in grammar.productions() {
            item_off.push(next.len() as u32);
            next.extend(p.rhs().iter().map(|&sym| dense(sym)));
            next.push(FINAL);
        }
        let n_nts = grammar.nonterminal_count();
        let (mut corner_off, mut mask_off) = (vec![0u32], vec![0u32]);
        let (mut corners, mut masks): (Vec<u32>, Vec<(u32, u64)>) = (Vec::new(), Vec::new());
        // `last[B] == A + 1` marks `A → B` as already listed.
        let mut last = vec![0u32; n_nts];
        for a in grammar.nonterminals() {
            let first_mask = masks.len();
            for &pid in grammar.productions_of(a) {
                if let Some(&Symbol::NonTerminal(b)) = grammar.production(pid).rhs().first() {
                    if last[b.index()] != a.index() as u32 + 1 {
                        last[b.index()] = a.index() as u32 + 1;
                        corners.push(b.index() as u32);
                    }
                }
                // `productions_of` lists ids in ascending order, so each
                // word's bits arrive together.
                let (word, bit) = ((pid.index() / 64) as u32, 1u64 << (pid.index() % 64));
                let own = masks.len() > first_mask;
                match masks.last_mut() {
                    Some((w, bits)) if own && *w == word => *bits |= bit,
                    _ => masks.push((word, bit)),
                }
            }
            corner_off.push(corners.len() as u32);
            mask_off.push(masks.len() as u32);
        }
        ClosureTables {
            item_off,
            next,
            terminal_count,
            corner_off,
            corners,
            mask_off,
            masks,
        }
    }

    /// The dense code of `item`'s next symbol, or [`FINAL`].
    #[inline]
    fn next(&self, item: Item) -> u32 {
        self.next[self.item_off[item.production().index()] as usize + item.dot()]
    }

    /// The nonterminal a dense code names, if it names one.
    #[inline]
    fn nonterminal(&self, code: u32) -> Option<usize> {
        (code != FINAL && code >= self.terminal_count)
            .then(|| (code - self.terminal_count) as usize)
    }

    fn symbol(&self, code: u32) -> Symbol {
        match self.nonterminal(code) {
            Some(n) => Symbol::NonTerminal(NonTerminal::new(n)),
            None => Symbol::Terminal(Terminal::new(code as usize)),
        }
    }
}

/// A bitset that is all zero between uses and is read back in index
/// order. A use costs the words it touched, never the whole set.
struct TouchedBits {
    words: Vec<u64>,
    /// The words the current use set.
    touched: Vec<u32>,
}

impl TouchedBits {
    fn new(bits: usize) -> TouchedBits {
        TouchedBits {
            words: vec![0; bits.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn insert_bits(&mut self, word: u32, bits: u64) {
        let w = &mut self.words[word as usize];
        if *w == 0 {
            self.touched.push(word);
        }
        *w |= bits;
    }

    #[inline]
    fn insert(&mut self, index: u32) {
        self.insert_bits(index / 64, 1 << (index % 64));
    }

    /// Calls `f` on every index in the set, in ascending order, and
    /// empties the set.
    #[inline]
    fn drain(&mut self, mut f: impl FnMut(u32)) {
        self.touched.sort_unstable();
        for &w in &self.touched {
            let mut bits = std::mem::take(&mut self.words[w as usize]);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        self.touched.clear();
    }
}

/// Reused per-state scratch for [`Closer::close`]. Only what a state
/// touched is cleared after it, so closing a state costs its closure,
/// never the grammar's size.
struct Closer {
    /// `stamp[A] == now` marks `A` as reached in the current state.
    stamp: Vec<u32>,
    now: u32,
    reached: Vec<u32>,
    /// The productions of the current closure.
    prods: TouchedBits,
}

impl Closer {
    fn new(grammar: &Grammar) -> Closer {
        Closer {
            stamp: vec![0; grammar.nonterminal_count()],
            now: 0,
            reached: Vec::new(),
            prods: TouchedBits::new(grammar.production_count()),
        }
    }

    #[inline]
    fn reach(&mut self, nt: usize) {
        if self.stamp[nt] != self.now {
            self.stamp[nt] = self.now;
            self.reached.push(nt as u32);
        }
    }

    /// Calls `visit` on every item of the closure of `kernel` (strictly
    /// ascending items), in ascending item order.
    ///
    /// The closure adds `B → · γ` for every nonterminal `B` reachable over
    /// left corners from a nonterminal after a kernel item's dot. Their
    /// productions are set in a bitset and read back in id order, merged
    /// with the kernel, so the closure comes out sorted without a sort.
    fn close(&mut self, tables: &ClosureTables, kernel: &[Item], mut visit: impl FnMut(Item)) {
        self.now = self.now.wrapping_add(1);
        if self.now == 0 {
            self.stamp.fill(0);
            self.now = 1;
        }
        for &item in kernel {
            if let Some(b) = tables.nonterminal(tables.next(item)) {
                self.reach(b);
            }
        }
        let mut i = 0;
        while let Some(&a) = self.reached.get(i) {
            i += 1;
            let a = a as usize;
            let (lo, hi) = (tables.corner_off[a], tables.corner_off[a + 1]);
            for k in lo..hi {
                self.reach(tables.corners[k as usize] as usize);
            }
        }
        for &a in &self.reached {
            let a = a as usize;
            let (lo, hi) = (tables.mask_off[a] as usize, tables.mask_off[a + 1] as usize);
            for &(word, bits) in &tables.masks[lo..hi] {
                self.prods.insert_bits(word, bits);
            }
        }
        self.reached.clear();

        let mut k = 0;
        self.prods.drain(|p| {
            let item = Item::start_of(ProdId::new(p as usize));
            while let Some(&ki) = kernel.get(k).filter(|&&ki| ki < item) {
                visit(ki);
                k += 1;
            }
            // A kernel item with its dot at the left is also a closure
            // item; it is visited once.
            if kernel.get(k) == Some(&item) {
                k += 1;
            }
            visit(item);
        });
        for &ki in &kernel[k..] {
            visit(ki);
        }
    }
}

/// A kernel's hash for the interning table.
fn kernel_hash(items: &[Item]) -> u64 {
    let mut hasher = FxHasher::default();
    items.hash(&mut hasher);
    hasher.finish()
}

impl Lr0Automaton {
    /// Builds the canonical collection by the standard worklist algorithm.
    ///
    /// Each state is closed by left-corner reachability over tables built
    /// once per grammar and linear in it. The closure comes out
    /// item-sorted, and a counting sort by next symbol cuts it into goto
    /// kernels, numbered in the first-seen symbol order that fixes the
    /// state numbering. Kernels are interned without cloning: an
    /// open-addressing table maps a kernel's FxHash to its state, the
    /// items live only in `states`, and a kernel is copied out of the
    /// scratch buffer only when it is new (verified by the item-set clone
    /// counter).
    pub fn build(grammar: &Grammar) -> Lr0Automaton {
        Lr0Automaton::build_recorded(grammar, &lalr_obs::NULL)
    }

    /// [`Lr0Automaton::build`] under an observer: the construction runs
    /// inside an `lr0.build` span, and — when the recorder is enabled —
    /// reports the interned state/item/transition counts.
    pub fn build_recorded(grammar: &Grammar, rec: &dyn Recorder) -> Lr0Automaton {
        let _span = lalr_obs::span(rec, "lr0.build");
        let tables = ClosureTables::new(grammar);
        let mut closer = Closer::new(grammar);
        let mut states: Vec<State> = Vec::new();
        // Open addressing over state ids, probed from the top bits of the
        // kernel hash; `hashes[s]` is state `s`'s kernel hash. Collisions
        // are resolved by comparing item slices against `states`, so a
        // kernel is copied out of the scratch buffer only when it is new.
        let mut slots: Vec<u32> = vec![NO_STATE; 64];
        let mut hashes: Vec<u64> = Vec::new();
        let mut work: Vec<StateId> = Vec::new();

        let mut intern = |items: &[Item],
                          accessing: Option<Symbol>,
                          states: &mut Vec<State>,
                          work: &mut Vec<StateId>|
         -> StateId {
            let hash = kernel_hash(items);
            let shift = 64 - slots.len().trailing_zeros();
            let mask = slots.len() - 1;
            let mut i = (hash >> shift) as usize;
            loop {
                let s = slots[i];
                if s == NO_STATE {
                    break;
                }
                if hashes[s as usize] == hash && states[s as usize].kernel.items() == items {
                    return StateId(s);
                }
                i = (i + 1) & mask;
            }
            let id = StateId::new(states.len());
            slots[i] = id.0;
            hashes.push(hash);
            states.push(State {
                kernel: ItemSet::from_sorted(items.to_vec()),
                transitions: Vec::new(),
                reductions: Vec::new(),
                accessing_symbol: accessing,
            });
            work.push(id);
            // Keep the load at most one half: double and reinsert.
            if 2 * states.len() > slots.len() {
                let len = 2 * slots.len();
                let shift = 64 - len.trailing_zeros();
                slots.clear();
                slots.resize(len, NO_STATE);
                for (s, &h) in hashes.iter().enumerate() {
                    let mut i = (h >> shift) as usize;
                    while slots[i] != NO_STATE {
                        i = (i + 1) & (len - 1);
                    }
                    slots[i] = s as u32;
                }
            }
            id
        };

        intern(
            &[Item::start_of(ProdId::START)],
            None,
            &mut states,
            &mut work,
        );

        // Goto kernels are bucketed by next symbol with a counting sort
        // into one flat buffer. `sym_slot[code]` is the symbol's bucket
        // for this state, or `NO_SLOT`; buckets are numbered in first-seen
        // order, the order that fixes the state numbering. Reset as the
        // transitions are read back — O(symbols seen), not O(alphabet).
        const NO_SLOT: u32 = u32::MAX;
        let mut sym_slot: Vec<u32> =
            vec![NO_SLOT; grammar.terminal_count() + grammar.nonterminal_count()];
        let mut order: Vec<u32> = Vec::new();
        // Bucket starts (then cursors), one past `order`.
        let mut starts: Vec<u32> = Vec::new();
        // The closure's non-final items, advanced, with their buckets.
        let mut advanced: Vec<(Item, u32)> = Vec::new();
        let mut kernels: Vec<Item> = Vec::new();
        // Each bucket's target state, then the transitions in code order.
        let mut targets: Vec<StateId> = Vec::new();
        let mut codes = TouchedBits::new(sym_slot.len());

        while let Some(sid) = work.pop() {
            let mut reductions: Vec<ProdId> = Vec::new();
            // The closure is item-sorted: final items arrive in production
            // order, and advancing keeps each goto kernel sorted.
            closer.close(&tables, states[sid.index()].kernel.items(), |item| {
                let code = tables.next(item);
                if code == FINAL {
                    reductions.push(item.production());
                    return;
                }
                let slot = &mut sym_slot[code as usize];
                if *slot == NO_SLOT {
                    *slot = order.len() as u32;
                    order.push(code);
                    starts.push(0);
                }
                starts[*slot as usize] += 1;
                advanced.push((item.advanced(), *slot));
            });
            states[sid.index()].reductions = reductions;

            let mut total = 0;
            for start in &mut starts {
                let count = *start;
                *start = total;
                total += count;
            }
            starts.push(total);
            kernels.resize(advanced.len(), Item::start_of(ProdId::START));
            for &(item, slot) in &advanced {
                let cursor = &mut starts[slot as usize];
                kernels[*cursor as usize] = item;
                *cursor += 1;
            }
            // Each cursor ended on the next bucket's start.
            let mut lo = 0;
            for (slot, &code) in order.iter().enumerate() {
                let hi = starts[slot] as usize;
                let sym = tables.symbol(code);
                targets.push(intern(&kernels[lo..hi], Some(sym), &mut states, &mut work));
                codes.insert(code);
                lo = hi;
            }
            // Dense codes order symbols as `Symbol` does.
            let mut transitions = Vec::with_capacity(order.len());
            codes.drain(|code| {
                let slot = std::mem::replace(&mut sym_slot[code as usize], NO_SLOT);
                transitions.push((tables.symbol(code), targets[slot as usize]));
            });
            states[sid.index()].transitions = transitions;
            order.clear();
            starts.clear();
            advanced.clear();
            targets.clear();
        }

        // Enumerate nonterminal transitions in (state, nt) order — the
        // canonical numbering used by the relation matrices. Per-state
        // runs are recorded as CSR offsets for `nt_transition_id`.
        let mut nt_transitions = Vec::new();
        let mut nt_offsets = Vec::with_capacity(states.len() + 1);
        nt_offsets.push(0u32);
        for (i, st) in states.iter().enumerate() {
            for &(sym, to) in &st.transitions {
                if let Symbol::NonTerminal(nt) = sym {
                    let from = StateId::new(i);
                    nt_transitions.push(NtTransition { from, nt, to });
                }
            }
            nt_offsets.push(nt_transitions.len() as u32);
        }

        if rec.is_enabled() {
            rec.add("lr0.states", states.len() as u64);
            let kernel_items: usize = states.iter().map(|s| s.kernel.len()).sum();
            rec.add("lr0.kernel_items", kernel_items as u64);
            let transitions: usize = states.iter().map(|s| s.transitions.len()).sum();
            rec.add("lr0.transitions", transitions as u64);
            rec.add("lr0.nt_transitions", nt_transitions.len() as u64);
        }

        Lr0Automaton {
            states,
            nt_transitions,
            nt_offsets,
        }
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// The kernel items of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn kernel(&self, state: StateId) -> &ItemSet {
        &self.states[state.index()].kernel
    }

    /// The full closure of `state` (recomputed on demand; kernels are what
    /// the automaton stores).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn closure(&self, grammar: &Grammar, state: StateId) -> ItemSet {
        self.states[state.index()].kernel.closure(grammar)
    }

    /// `GOTO(state, symbol)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn transition(&self, state: StateId, sym: Symbol) -> Option<StateId> {
        let ts = &self.states[state.index()].transitions;
        ts.binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|i| ts[i].1)
    }

    /// All outgoing transitions of `state`, sorted by symbol.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn transitions(&self, state: StateId) -> &[(Symbol, StateId)] {
        &self.states[state.index()].transitions
    }

    /// The outgoing *terminal* shift symbols of `state`.
    pub fn shift_symbols(&self, state: StateId) -> impl Iterator<Item = Terminal> + '_ {
        self.transitions(state)
            .iter()
            .filter_map(|&(s, _)| s.terminal())
    }

    /// The productions reducible in `state` (final items of its closure).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn reductions(&self, state: StateId) -> &[ProdId] {
        &self.states[state.index()].reductions
    }

    /// The unique symbol labelling every in-edge of `state` (`None` for the
    /// start state).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn accessing_symbol(&self, state: StateId) -> Option<Symbol> {
        self.states[state.index()].accessing_symbol
    }

    /// All nonterminal transitions, in id order.
    #[inline]
    pub fn nt_transitions(&self) -> &[NtTransition] {
        &self.nt_transitions
    }

    /// A nonterminal transition by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn nt_transition(&self, id: NtTransId) -> NtTransition {
        self.nt_transitions[id.index()]
    }

    /// The ids of the nonterminal transitions out of `state`: one dense
    /// run, in nonterminal order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn nt_transition_range(&self, state: StateId) -> std::ops::Range<usize> {
        self.nt_offsets[state.index()] as usize..self.nt_offsets[state.index() + 1] as usize
    }

    /// Looks up the id of the transition `(state, nt)` — a binary search
    /// within the state's dense run of nonterminal transitions.
    pub fn nt_transition_id(&self, state: StateId, nt: NonTerminal) -> Option<NtTransId> {
        let run = self.nt_transition_range(state);
        let lo = run.start;
        self.nt_transitions[run]
            .binary_search_by_key(&nt, |t| t.nt)
            .ok()
            .map(|i| NtTransId::new(lo + i))
    }

    /// Walks `symbols` from `state`, returning the end state if every
    /// transition exists.
    pub fn walk(&self, state: StateId, symbols: &[Symbol]) -> Option<StateId> {
        symbols
            .iter()
            .try_fold(state, |s, &sym| self.transition(s, sym))
    }

    /// The state reached by shifting the user start symbol from the start
    /// state — the *accept state* (its kernel is `<start> → S ·`).
    pub fn accept_state(&self, grammar: &Grammar) -> StateId {
        self.transition(StateId::START, Symbol::NonTerminal(grammar.start()))
            .expect("the start production's transition always exists")
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.transitions.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_grammar::parse_grammar;

    /// The dragon-book expression grammar has the famous 12-state LR(0)
    /// machine.
    #[test]
    fn dragon_expression_grammar_has_12_states() {
        let g = parse_grammar(
            r#"
            e : e "+" t | t ;
            t : t "*" f | f ;
            f : "(" e ")" | "id" ;
            "#,
        )
        .unwrap();
        let lr0 = Lr0Automaton::build(&g);
        assert_eq!(lr0.state_count(), 12);
        // Nonterminal transitions: I0-e, I0-t, I0-f, I4-e, I4-t, I4-f,
        // I6-t, I6-f, I7-f.
        assert_eq!(lr0.nt_transitions().len(), 9);
    }

    #[test]
    fn start_state_and_accept_state() {
        let g = parse_grammar("s : \"a\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        assert_eq!(lr0.accessing_symbol(StateId::START), None);
        let acc = lr0.accept_state(&g);
        assert_eq!(
            lr0.accessing_symbol(acc),
            Some(Symbol::NonTerminal(g.start()))
        );
        let kernel = lr0.kernel(acc);
        assert_eq!(kernel.len(), 1);
        assert!(kernel.items()[0].is_final(&g));
    }

    #[test]
    fn reductions_include_epsilon_items() {
        let g = parse_grammar("s : a \"x\" ; a : ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        // In the start state, a → · is a (final) closure item.
        let a_prod = g.productions_of(g.nonterminal_by_name("a").unwrap())[0];
        assert_eq!(lr0.reductions(StateId::START), &[a_prod]);
    }

    #[test]
    fn walk_follows_production_bodies() {
        let g = parse_grammar("s : \"a\" \"b\" \"c\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let p = g.production(ProdId::new(1));
        let end = lr0.walk(StateId::START, p.rhs()).unwrap();
        assert!(lr0.reductions(end).contains(&ProdId::new(1)));
        assert_eq!(lr0.walk(end, p.rhs()), None);
    }

    #[test]
    fn nt_transition_index_is_consistent() {
        let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        for (i, t) in lr0.nt_transitions().iter().enumerate() {
            let id = NtTransId::new(i);
            assert!(lr0.nt_transition_range(t.from).contains(&i));
            assert_eq!(lr0.nt_transition(id), *t);
            assert_eq!(lr0.nt_transition_id(t.from, t.nt), Some(id));
            assert_eq!(
                lr0.transition(t.from, Symbol::NonTerminal(t.nt)),
                Some(t.to)
            );
        }
    }

    #[test]
    fn deterministic_state_numbering() {
        let g = parse_grammar("s : \"a\" s | \"b\" ;").unwrap();
        let a = Lr0Automaton::build(&g);
        let b = Lr0Automaton::build(&g);
        assert_eq!(a.state_count(), b.state_count());
        for s in a.states() {
            assert_eq!(a.kernel(s), b.kernel(s));
            assert_eq!(a.transitions(s), b.transitions(s));
        }
    }

    #[test]
    fn accessing_symbol_unique_over_in_edges() {
        let g =
            parse_grammar("e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;")
                .unwrap();
        let lr0 = Lr0Automaton::build(&g);
        for s in lr0.states() {
            for &(sym, to) in lr0.transitions(s) {
                assert_eq!(lr0.accessing_symbol(to), Some(sym));
            }
        }
    }

    #[test]
    fn transition_count_matches_enumeration() {
        let g = parse_grammar("s : \"a\" s | \"b\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let manual: usize = lr0.states().map(|s| lr0.transitions(s).len()).sum();
        assert_eq!(lr0.transition_count(), manual);
    }
}
