//! The canonical LR(1) collection (Knuth's construction).
//!
//! This is the expensive baseline of the paper's evaluation: it computes
//! exact LR(1) look-aheads by splitting states, at the cost of a much larger
//! automaton. `lalr-core` uses it two ways: merged by core it yields the
//! reference LALR(1) look-ahead sets (see [`crate::merge_lr1`]), and its
//! conflict-freedom defines the LR(1) grammar class.

use std::hash::{Hash, Hasher};

use rustc_hash::{FxHashMap, FxHasher};

use lalr_bitset::BitSet;
use lalr_grammar::analysis::{nullable, nullable_left_corner_components, FirstSets, NullableSet};
use lalr_grammar::{Grammar, ProdId, Symbol, Terminal};

use crate::item::Item;
use crate::lr0::StateId;

/// An LR(1) state: kernel items with their look-ahead sets, sorted by item.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lr1State {
    kernel: Vec<(Item, BitSet)>,
}

impl Lr1State {
    /// The kernel items with look-ahead sets.
    pub fn kernel(&self) -> &[(Item, BitSet)] {
        &self.kernel
    }

    /// The LR(0) core of this state (kernel items without look-aheads).
    pub fn core(&self) -> crate::item::ItemSet {
        self.kernel.iter().map(|&(i, _)| i).collect()
    }
}

/// The canonical LR(1) automaton.
///
/// # Examples
///
/// ```
/// use lalr_automata::{Lr0Automaton, Lr1Automaton};
/// use lalr_grammar::parse_grammar;
///
/// // The canonical machine splits states the LR(0) machine shares.
/// let g = parse_grammar(
///     "s : \"u\" a \"d\" | \"v\" a \"e\" ; a : \"c\" ;",
/// )?;
/// let lr1 = Lr1Automaton::build(&g);
/// let lr0 = Lr0Automaton::build(&g);
/// assert!(lr1.state_count() > lr0.state_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lr1Automaton {
    states: Vec<Lr1State>,
    transitions: Vec<Vec<(Symbol, StateId)>>,
    /// Reductions per state: `(production, look-ahead set)`.
    reductions: Vec<Vec<(ProdId, BitSet)>>,
}

impl Lr1Automaton {
    /// Builds the canonical LR(1) collection.
    ///
    /// One [`Lr1Closure`] closes every state. The closure is item-sorted,
    /// so goto kernels are bucketed by next symbol in first-seen order
    /// through a dense symbol-slot array and are born sorted; they are
    /// interned by hash plus slice comparison against the state table,
    /// never cloned into the intern map — the scheme of
    /// [`crate::Lr0Automaton::build`].
    pub fn build(grammar: &Grammar) -> Lr1Automaton {
        let n_terms = grammar.terminal_count();
        let mut closure = Lr1Closure::new(grammar, n_terms);

        let mut states: Vec<Lr1State> = Vec::new();
        let mut transitions: Vec<Vec<(Symbol, StateId)>> = Vec::new();
        let mut reductions: Vec<Vec<(ProdId, BitSet)>> = Vec::new();
        // Kernel hash → states whose kernel may match.
        let mut interned: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut work: Vec<StateId> = Vec::new();
        // Spent kernel buffers from intern hits, recycled as goto buckets.
        let mut pool: Vec<Vec<(Item, BitSet)>> = Vec::new();

        let mut intern = |mut kernel: Vec<(Item, BitSet)>,
                          states: &mut Vec<Lr1State>,
                          work: &mut Vec<StateId>,
                          pool: &mut Vec<Vec<(Item, BitSet)>>|
         -> StateId {
            let mut hasher = FxHasher::default();
            kernel.hash(&mut hasher);
            let candidates = interned.entry(hasher.finish()).or_default();
            for &c in candidates.iter() {
                if states[c as usize].kernel == kernel {
                    kernel.clear();
                    pool.push(kernel);
                    return StateId(c);
                }
            }
            let id = StateId::new(states.len());
            candidates.push(id.0);
            states.push(Lr1State { kernel });
            work.push(id);
            id
        };

        let mut eof_only = BitSet::new(n_terms);
        eof_only.insert(Terminal::EOF.index());
        intern(
            vec![(Item::start_of(ProdId::START), eof_only)],
            &mut states,
            &mut work,
            &mut pool,
        );

        const NO_SLOT: u32 = u32::MAX;
        let dense = |sym: Symbol| -> usize {
            match sym {
                Symbol::Terminal(t) => t.index(),
                Symbol::NonTerminal(n) => n_terms + n.index(),
            }
        };
        let mut sym_slot: Vec<u32> = vec![NO_SLOT; n_terms + grammar.nonterminal_count()];
        let mut order: Vec<Symbol> = Vec::new();
        let mut buckets: Vec<Vec<(Item, BitSet)>> = Vec::new();

        while let Some(sid) = work.pop() {
            // Final items become reductions (already production-sorted);
            // the others group by next symbol into goto kernels.
            let mut red: Vec<(ProdId, BitSet)> = Vec::new();
            closure.close(&states[sid.index()].kernel, |item, la| {
                let Some(sym) = item.next_symbol(grammar) else {
                    red.push((item.production(), la.clone()));
                    return;
                };
                let d = dense(sym);
                if sym_slot[d] == NO_SLOT {
                    sym_slot[d] = order.len() as u32;
                    if buckets.len() == order.len() {
                        buckets.push(pool.pop().unwrap_or_default());
                    }
                    order.push(sym);
                }
                buckets[sym_slot[d] as usize].push((item.advanced(), la.clone()));
            });

            let mut ts: Vec<(Symbol, StateId)> = Vec::with_capacity(order.len());
            for (slot, &sym) in order.iter().enumerate() {
                let kernel = std::mem::replace(&mut buckets[slot], pool.pop().unwrap_or_default());
                ts.push((sym, intern(kernel, &mut states, &mut work, &mut pool)));
            }
            ts.sort_unstable_by_key(|&(sym, _)| sym);
            for &sym in &order {
                sym_slot[dense(sym)] = NO_SLOT;
            }
            order.clear();

            transitions.resize_with(states.len(), Vec::new);
            reductions.resize_with(states.len(), Vec::new);
            transitions[sid.index()] = ts;
            reductions[sid.index()] = red;
        }

        Lr1Automaton {
            states,
            transitions,
            reductions,
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

    /// A state by id.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn state(&self, state: StateId) -> &Lr1State {
        &self.states[state.index()]
    }

    /// `GOTO(state, symbol)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn transition(&self, state: StateId, sym: Symbol) -> Option<StateId> {
        let ts = &self.transitions[state.index()];
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
        &self.transitions[state.index()]
    }

    /// The reductions available in `state`: `(production, LA set)`, sorted
    /// by production.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn reductions(&self, state: StateId) -> &[(ProdId, BitSet)] {
        &self.reductions[state.index()]
    }

    /// Conflicts of the canonical machine itself: per state, one for each
    /// terminal that is both shifted and a reduction's look-ahead, and one
    /// for each terminal two reductions share. Zero exactly when the
    /// grammar is LR(1).
    ///
    /// # Examples
    ///
    /// ```
    /// use lalr_automata::Lr1Automaton;
    /// use lalr_grammar::parse_grammar;
    ///
    /// let ambiguous = parse_grammar("e : e \"+\" e | \"x\" ;")?;
    /// assert!(Lr1Automaton::build(&ambiguous).conflict_count() > 0);
    /// let lr1 = parse_grammar("e : e \"+\" \"x\" | \"x\" ;")?;
    /// assert_eq!(Lr1Automaton::build(&lr1).conflict_count(), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn conflict_count(&self) -> usize {
        let mut count = 0;
        for state in self.states() {
            let reds = self.reductions(state);
            for &(sym, _) in self.transitions(state) {
                if let Some(t) = sym.terminal() {
                    count += reds.iter().filter(|(_, la)| la.contains(t.index())).count();
                }
            }
            for (i, (_, la1)) in reds.iter().enumerate() {
                for (_, la2) in &reds[i + 1..] {
                    count += (la1 & la2).count();
                }
            }
        }
        count
    }
}

/// Marks a condensed edge whose `FIRST(η)` is empty.
const NO_FIRST: u32 = u32::MAX;

/// A left-corner edge between two components of the nullable-tail graph:
/// the union of every production `X → C η` with `X` in the source and `C`
/// in the target component.
#[derive(Debug, Clone, Copy)]
struct CornerEdge {
    /// Target component.
    to: u32,
    /// Index of `FIRST(η)` in `Lr1Closure::edge_first`, or [`NO_FIRST`].
    first: u32,
    /// Some `η ⇒* ε` and the target is another component: the source's
    /// look-ahead set flows on into the target's.
    nullable: bool,
}

/// The LR(1) closure, precomputed once per grammar over its left-corner
/// graph.
///
/// Within one state every closure item `[X → · η]` carries the same
/// look-ahead set `LA(X)`, so closing a kernel is a set equation over
/// nonterminals. A kernel item `[A → α · B γ, L]` reaches `B` and adds
/// `FIRST(γ)` to `LA(B)`, plus `L` when `γ ⇒* ε`. A *left-corner edge*
/// `X → C` — a production `X → C η` — of a reached `X` reaches `C` and
/// adds `FIRST(η)` to `LA(C)`, plus all of `LA(X)` when `η ⇒* ε`. That
/// last part is the paper's Digraph problem
/// `F(x) = F′(x) ∪ ⋃{F(y) : y R x}` over the nullable-tail edges `R`:
/// the members of one strongly connected component of `R` share one set,
/// and in a topological order of the components every set is final before
/// it flows on. So the tables condense the left-corner graph by those
/// components, numbered topologically, and a state closes in one pass
/// over the components it reaches — no item is ever queued twice.
///
/// The tables are linear in the grammar: one `FIRST` row per nonterminal
/// and per condensed edge (at most one per production) and one scratch row
/// per component; nothing is keyed by pairs of nonterminals.
/// [`Lr1Automaton::build`] closes every state with one instance; the
/// yacc-style propagation baseline in `lalr-core` uses another, one
/// column wider for its dummy look-ahead.
///
/// # Examples
///
/// ```
/// use lalr_automata::{Item, Lr1Closure};
/// use lalr_bitset::BitSet;
/// use lalr_grammar::{parse_grammar, ProdId, Terminal};
///
/// let g = parse_grammar("s : a \"x\" ; a : \"y\" | ;")?;
/// let mut eof = BitSet::new(g.terminal_count());
/// eof.insert(Terminal::EOF.index());
/// let mut closed = Vec::new();
/// Lr1Closure::new(&g, g.terminal_count()).close(
///     &[(Item::start_of(ProdId::START), eof)],
///     |item, la| closed.push((item.display(&g), la.count())),
/// );
/// // <start> → · s, s → · a x, and both a-productions with LA {x}.
/// assert_eq!(closed.len(), 4);
/// assert_eq!(closed[2], ("a -> . y".to_string(), 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lr1Closure<'g> {
    grammar: &'g Grammar,
    nullable: NullableSet,
    /// `FIRST(X)` per nonterminal.
    first: Vec<BitSet>,
    /// Component of each nonterminal; every nullable-tail edge between two
    /// components runs from a lower to a higher id.
    comp: Vec<u32>,
    /// CSR: the productions of component `c`'s members are
    /// `comp_prods[comp_prod_off[c] .. comp_prod_off[c + 1]]`.
    comp_prod_off: Vec<u32>,
    comp_prods: Vec<ProdId>,
    /// CSR: the condensed left-corner edges out of component `c` are
    /// `edges[edge_off[c] .. edge_off[c + 1]]`.
    edge_off: Vec<u32>,
    edges: Vec<CornerEdge>,
    /// The non-empty `FIRST(η)` rows of the condensed edges.
    edge_first: Vec<BitSet>,
    // Per-close scratch, left clean between calls.
    la: Vec<BitSet>,
    reached: Vec<bool>,
    reached_list: Vec<u32>,
    prods: Vec<ProdId>,
    merged: BitSet,
}

impl<'g> Lr1Closure<'g> {
    /// Precomputes the tables for `grammar`, with look-ahead sets `width`
    /// bits wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the grammar's terminal count
    /// (wider sets leave room for marker columns past the alphabet).
    pub fn new(grammar: &'g Grammar, width: usize) -> Lr1Closure<'g> {
        assert!(
            width >= grammar.terminal_count(),
            "look-ahead width {width} below the terminal count"
        );
        let nullable = nullable(grammar);
        let first_sets = FirstSets::compute(grammar, &nullable);
        let first: Vec<BitSet> = grammar
            .nonterminals()
            .map(|nt| BitSet::from_indices(width, first_sets.iter(nt).map(Terminal::index)))
            .collect();

        // Tarjan numbers components sinks first; flip the ids so that
        // nullable-tail edges run from lower to higher.
        let scc = nullable_left_corner_components(grammar, &nullable);
        let n_comps = scc.count();
        let comp: Vec<u32> = (0..grammar.nonterminal_count())
            .map(|x| (n_comps - 1 - scc.component(x)) as u32)
            .collect();

        // Left-corner edges (comp(X), comp(C), FIRST(η), η ⇒* ε), condensed
        // to one edge per component pair. A component reaching itself
        // needs no edge unless it adds FIRST(η).
        let mut corner: Vec<(u32, u32, BitSet, bool)> = Vec::new();
        for p in grammar.productions() {
            let Some((&Symbol::NonTerminal(c), tail)) = p.rhs().split_first() else {
                continue;
            };
            let mut tail_first = BitSet::new(width);
            let tail_nullable = union_first(&mut tail_first, tail, &first, &nullable);
            let (from, to) = (comp[p.lhs().index()], comp[c.index()]);
            corner.push((from, to, tail_first, tail_nullable));
        }
        corner.sort_unstable_by_key(|e| (e.0, e.1));
        let mut edge_off = vec![0u32; n_comps + 1];
        let mut edges: Vec<CornerEdge> = Vec::new();
        let mut edge_first: Vec<BitSet> = Vec::new();
        let mut rest = corner.as_slice();
        while let Some(&(from, to, _, _)) = rest.first() {
            let run = rest.iter().take_while(|e| (e.0, e.1) == (from, to)).count();
            let (group, tail) = rest.split_at(run);
            rest = tail;
            let mut first_eta = BitSet::new(width);
            for e in group {
                first_eta.union_with(&e.2);
            }
            let nullable = from != to && group.iter().any(|e| e.3);
            let first = if first_eta.is_empty() {
                if from == to {
                    continue;
                }
                NO_FIRST
            } else {
                edge_first.push(first_eta);
                (edge_first.len() - 1) as u32
            };
            edges.push(CornerEdge {
                to,
                first,
                nullable,
            });
            edge_off[from as usize + 1] = edges.len() as u32;
        }
        for c in 1..=n_comps {
            edge_off[c] = edge_off[c].max(edge_off[c - 1]);
        }

        let lhs_comp = |pid: ProdId| comp[grammar.production(pid).lhs().index()];
        let mut comp_prods: Vec<ProdId> = grammar.iter_productions().map(|(pid, _)| pid).collect();
        comp_prods.sort_by_key(|&pid| lhs_comp(pid));
        let comp_prod_off: Vec<u32> = (0..=n_comps as u32)
            .map(|c| comp_prods.partition_point(|&pid| lhs_comp(pid) < c) as u32)
            .collect();

        Lr1Closure {
            grammar,
            nullable,
            first,
            comp,
            comp_prod_off,
            comp_prods,
            edge_off,
            edges,
            edge_first,
            la: vec![BitSet::new(width); n_comps],
            reached: vec![false; n_comps],
            reached_list: Vec::new(),
            prods: Vec::new(),
            merged: BitSet::new(width),
        }
    }

    /// Closes `kernel` — distinct items in ascending order, with look-ahead
    /// sets of this closure's width — calling `visit` on every item of the
    /// closure, in ascending item order, with its look-ahead set.
    ///
    /// # Panics
    ///
    /// Panics if a kernel look-ahead set has another width.
    pub fn close(&mut self, kernel: &[(Item, BitSet)], mut visit: impl FnMut(Item, &BitSet)) {
        let g = self.grammar;
        for (item, la) in kernel {
            let Some(Symbol::NonTerminal(b)) = item.next_symbol(g) else {
                continue;
            };
            let c = self.comp[b.index()] as usize;
            if !self.reached[c] {
                self.reached[c] = true;
                self.reached_list.push(c as u32);
            }
            let tail = item.tail_after_next(g);
            if union_first(&mut self.la[c], tail, &self.first, &self.nullable) {
                self.la[c].union_with(la);
            }
        }

        // Everything left-corner-reachable, with the FIRST(η) of each edge.
        let mut next = 0;
        while let Some(&c) = self.reached_list.get(next) {
            next += 1;
            let c = c as usize;
            for e in &self.edges[self.edge_off[c] as usize..self.edge_off[c + 1] as usize] {
                let to = e.to as usize;
                if e.first != NO_FIRST {
                    self.la[to].union_with(&self.edge_first[e.first as usize]);
                }
                if !self.reached[to] {
                    self.reached[to] = true;
                    self.reached_list.push(e.to);
                }
            }
        }

        // One sweep in topological order: a component's set is final once
        // every lower component has flowed into it.
        self.reached_list.sort_unstable();
        for &c in &self.reached_list {
            let c = c as usize;
            for e in &self.edges[self.edge_off[c] as usize..self.edge_off[c + 1] as usize] {
                if e.nullable {
                    let (lo, hi) = self.la.split_at_mut(e.to as usize);
                    hi[0].union_with(&lo[c]);
                }
            }
            let prods = self.comp_prod_off[c] as usize..self.comp_prod_off[c + 1] as usize;
            self.prods.extend_from_slice(&self.comp_prods[prods]);
        }

        // Merge the closure items into the sorted kernel. Only a kernel item
        // with its dot at the left can coincide with one; it keeps its own
        // look-aheads as well.
        self.prods.sort_unstable();
        let mut k = 0;
        for &p in &self.prods {
            let item = Item::start_of(p);
            while let Some((ki, kla)) = kernel.get(k).filter(|(ki, _)| *ki < item) {
                visit(*ki, kla);
                k += 1;
            }
            let la = &self.la[self.comp[g.production(p).lhs().index()] as usize];
            match kernel.get(k) {
                Some((ki, kla)) if *ki == item => {
                    self.merged.clear();
                    self.merged.union_with(kla);
                    self.merged.union_with(la);
                    visit(item, &self.merged);
                    k += 1;
                }
                _ => visit(item, la),
            }
        }
        for (ki, kla) in &kernel[k..] {
            visit(*ki, kla);
        }

        for &c in &self.reached_list {
            self.la[c as usize].clear();
            self.reached[c as usize] = false;
        }
        self.reached_list.clear();
        self.prods.clear();
    }
}

/// Adds `FIRST(symbols)` to `dst`; returns whether `symbols ⇒* ε`.
fn union_first(
    dst: &mut BitSet,
    symbols: &[Symbol],
    first: &[BitSet],
    nullable: &NullableSet,
) -> bool {
    for &sym in symbols {
        match sym {
            Symbol::Terminal(t) => {
                dst.insert(t.index());
                return false;
            }
            Symbol::NonTerminal(n) => {
                dst.union_with(&first[n.index()]);
                if !nullable.contains(n) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_grammar::parse_grammar;

    fn la_names(g: &Grammar, set: &BitSet) -> Vec<String> {
        set.iter()
            .map(|i| g.terminal_name(Terminal::new(i)).to_string())
            .collect()
    }

    #[test]
    fn accept_reduction_has_eof_lookahead() {
        let g = parse_grammar("s : \"a\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        let acc = lr1
            .transition(StateId::START, Symbol::NonTerminal(g.start()))
            .unwrap();
        let red = lr1.reductions(acc);
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].0, ProdId::START);
        assert_eq!(la_names(&g, &red[0].1), vec!["$"]);
    }

    #[test]
    fn knuth_splitting_example() {
        // After "a c" the reduction a → c has LA {d}; after "b c" it has
        // LA {e}. Canonical LR(1) keeps those two states apart.
        let g = parse_grammar("s : \"u\" a \"d\" | \"v\" a \"e\" ; a : \"c\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        let u = g.terminal_by_name("u").unwrap();
        let v = g.terminal_by_name("v").unwrap();
        let c = g.terminal_by_name("c").unwrap();
        let s_a = lr1.transition(StateId::START, u.into()).unwrap();
        let s_b = lr1.transition(StateId::START, v.into()).unwrap();
        let s_ac = lr1.transition(s_a, c.into()).unwrap();
        let s_bc = lr1.transition(s_b, c.into()).unwrap();
        assert_ne!(s_ac, s_bc);
        assert_eq!(la_names(&g, &lr1.reductions(s_ac)[0].1), vec!["d"]);
        assert_eq!(la_names(&g, &lr1.reductions(s_bc)[0].1), vec!["e"]);
    }

    #[test]
    fn lookaheads_flow_through_nullable_tails() {
        // In s → a tail, tail nullable: LA(a → x) ⊇ {$} ∪ FIRST(tail).
        let g = parse_grammar("s : a tail ; tail : \"t\" | ; a : \"x\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        let x = g.terminal_by_name("x").unwrap();
        let after_x = lr1.transition(StateId::START, x.into()).unwrap();
        let red = lr1.reductions(after_x);
        assert_eq!(red.len(), 1);
        assert_eq!(la_names(&g, &red[0].1), vec!["$", "t"]);
    }

    #[test]
    fn nullable_tail_cycles_share_one_lookahead_set() {
        // a and b are each other's left corner with the nullable tail o:
        // LA(a) = LA(b) = {x} ∪ FIRST(o).
        let g = parse_grammar("s : a \"x\" ; a : b o | \"y\" ; b : a o | \"z\" ; o : \"w\" | ;")
            .unwrap();
        let mut eof = BitSet::new(g.terminal_count());
        eof.insert(Terminal::EOF.index());
        let mut closed = Vec::new();
        Lr1Closure::new(&g, g.terminal_count()).close(
            &[(Item::start_of(ProdId::START), eof)],
            |item, la| {
                let mut names = la_names(&g, la);
                names.sort();
                closed.push((item, names));
            },
        );
        let a = g.nonterminal_by_name("a").unwrap();
        let b = g.nonterminal_by_name("b").unwrap();
        let mut cycle_items = 0;
        for (item, names) in &closed {
            let lhs = g.production(item.production()).lhs();
            if lhs == a || lhs == b {
                cycle_items += 1;
                assert_eq!(names, &["w", "x"], "{}", item.display(&g));
            }
        }
        assert_eq!(cycle_items, 4);
        assert!(closed.windows(2).all(|w| w[0].0 < w[1].0), "item order");
    }

    #[test]
    fn kernel_item_at_the_left_edge_merges_with_its_closure_item() {
        // Closing [a → · a "x", {$}] reaches a itself: the kernel item is
        // also a closure item and keeps $ besides LA(a) = {x}.
        let g = parse_grammar("a : a \"x\" | \"y\" ;").unwrap();
        let a = g.nonterminal_by_name("a").unwrap();
        let (recursive, base) = (g.productions_of(a)[0], g.productions_of(a)[1]);
        let mut eof = BitSet::new(g.terminal_count());
        eof.insert(Terminal::EOF.index());
        let mut closed = Vec::new();
        Lr1Closure::new(&g, g.terminal_count())
            .close(&[(Item::start_of(recursive), eof)], |item, la| {
                closed.push((item.production(), la_names(&g, la)))
            });
        assert_eq!(
            closed,
            vec![
                (recursive, vec!["$".to_string(), "x".to_string()]),
                (base, vec!["x".to_string()]),
            ]
        );
    }

    #[test]
    fn closure_loops_converge_on_recursive_grammars() {
        let g = parse_grammar("e : e \"+\" e | \"x\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        assert!(lr1.state_count() > 0);
        // Every reduction LA in the whole machine is non-empty.
        for s in lr1.states() {
            for (_, la) in lr1.reductions(s) {
                assert!(!la.is_empty());
            }
        }
    }
}
