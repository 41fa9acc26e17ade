//! The canonical LR(0) collection.

use std::hash::{Hash, Hasher};

use lalr_grammar::{Grammar, NonTerminal, ProdId, Symbol, Terminal};
use lalr_obs::Recorder;
use rustc_hash::{FxHashMap, FxHasher};

use crate::item::{ClosureScratch, Item, ItemSet};

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

impl Lr0Automaton {
    /// Builds the canonical collection by the standard worklist algorithm.
    ///
    /// Kernels are interned without cloning: the table maps the FxHash of a
    /// kernel's items to candidate state indices, and the items themselves
    /// live only in `states` (verified by the item-set clone counter).
    /// Goto sets are bucketed by next symbol through a dense symbol-slot
    /// scratch array instead of a hash map, preserving the first-seen
    /// symbol order that fixes the state numbering.
    pub fn build(grammar: &Grammar) -> Lr0Automaton {
        Lr0Automaton::build_recorded(grammar, &lalr_obs::NULL)
    }

    /// [`Lr0Automaton::build`] under an observer: the construction runs
    /// inside an `lr0.build` span, and — when the recorder is enabled —
    /// reports the interned state/item/transition counts.
    pub fn build_recorded(grammar: &Grammar, rec: &dyn Recorder) -> Lr0Automaton {
        let _span = lalr_obs::span(rec, "lr0.build");
        let mut states: Vec<State> = Vec::new();
        // Kernel hash → states whose kernel may match (collisions resolved
        // by comparing item slices against `states`, never by cloning).
        let mut interned: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut work: Vec<StateId> = Vec::new();
        // Spent kernel buffers from intern hits, recycled as goto buckets.
        let mut pool: Vec<Vec<Item>> = Vec::new();

        let mut intern = |items: Vec<Item>,
                          accessing: Option<Symbol>,
                          states: &mut Vec<State>,
                          work: &mut Vec<StateId>,
                          pool: &mut Vec<Vec<Item>>|
         -> StateId {
            let mut hasher = FxHasher::default();
            items.hash(&mut hasher);
            let candidates = interned.entry(hasher.finish()).or_default();
            for &c in candidates.iter() {
                if states[c as usize].kernel.items() == items.as_slice() {
                    let mut spent = items;
                    spent.clear();
                    pool.push(spent);
                    return StateId(c);
                }
            }
            let id = StateId::new(states.len());
            candidates.push(id.0);
            states.push(State {
                kernel: ItemSet::from_sorted(items),
                transitions: Vec::new(),
                reductions: Vec::new(),
                accessing_symbol: accessing,
            });
            work.push(id);
            id
        };

        intern(
            vec![Item::start_of(ProdId::START)],
            None,
            &mut states,
            &mut work,
            &mut pool,
        );

        // Dense per-symbol bucket slots: `sym_slot[dense(sym)]` is the index
        // into `order`/`buckets` for this state, or `NO_SLOT`. Reset between
        // states by walking `order` — O(symbols seen), not O(alphabet).
        const NO_SLOT: u32 = u32::MAX;
        let n_terms = grammar.terminal_count();
        let dense = |sym: Symbol| -> usize {
            match sym {
                Symbol::Terminal(t) => t.index(),
                Symbol::NonTerminal(n) => n_terms + n.index(),
            }
        };
        let mut sym_slot: Vec<u32> = vec![NO_SLOT; n_terms + grammar.nonterminal_count()];
        let mut order: Vec<Symbol> = Vec::new();
        let mut buckets: Vec<Vec<Item>> = Vec::new();
        let mut scratch = ClosureScratch::default();

        while let Some(sid) = work.pop() {
            let closure = states[sid.index()]
                .kernel
                .closure_with(grammar, &mut scratch);
            let mut reductions: Vec<ProdId> = Vec::new();
            for &item in closure {
                match item.next_symbol(grammar) {
                    None => reductions.push(item.production()),
                    Some(sym) => {
                        let d = dense(sym);
                        let slot = if sym_slot[d] == NO_SLOT {
                            let slot = order.len();
                            sym_slot[d] = slot as u32;
                            order.push(sym);
                            if buckets.len() == slot {
                                buckets.push(pool.pop().unwrap_or_default());
                            }
                            slot
                        } else {
                            sym_slot[d] as usize
                        };
                        buckets[slot].push(item.advanced());
                    }
                }
            }
            reductions.sort_unstable();
            reductions.dedup();
            states[sid.index()].reductions = reductions;

            let mut transitions: Vec<(Symbol, StateId)> = Vec::with_capacity(order.len());
            for (slot, &sym) in order.iter().enumerate() {
                // The closure is item-sorted and advancing preserves that
                // order within a bucket, so each goto kernel is born sorted.
                let items = std::mem::replace(&mut buckets[slot], pool.pop().unwrap_or_default());
                let target = intern(items, Some(sym), &mut states, &mut work, &mut pool);
                transitions.push((sym, target));
            }
            transitions.sort_unstable_by_key(|&(sym, _)| sym);
            states[sid.index()].transitions = transitions;
            for &sym in &order {
                sym_slot[dense(sym)] = NO_SLOT;
            }
            order.clear();
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
