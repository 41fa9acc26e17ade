//! Canonical LR(1) conflicts counted over LR(0) cores.
//!
//! A canonical LR(1) state is an LR(0) core plus one look-ahead set per
//! kernel item, so the canonical machine can be explored on the LR(0)
//! automaton without LR(1) items. One [`Lr1Closure`] pass per core, with
//! a marker column per kernel item in place of its look-ahead set (the
//! dummy look-ahead of yacc-style propagation, one per item), writes each
//! closure item's look-ahead set as a *recipe*: spontaneous terminals plus
//! the marker columns of the kernel items whose sets flow into it. The
//! closure only ever unions, so a successor's kernel sets and a
//! reduction's set are row unions of the state's own kernel sets.

use std::hash::Hasher;

use rustc_hash::{FxHashMap, FxHasher};

use lalr_bitset::BitSet;
use lalr_grammar::{Grammar, ProdId, Terminal};

use crate::item::Item;
use crate::lr0::{Lr0Automaton, StateId};
use crate::lr1::Lr1Closure;

const WORD: usize = usize::BITS as usize;
const NONE: u32 = u32::MAX;

/// What [`count_lr1_conflicts`] explored and found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lr1ConflictCount {
    /// Conflicts of the canonical LR(1) states whose core is a candidate,
    /// counted as [`crate::Lr1Automaton::conflict_count`] counts them.
    pub conflicts: usize,
    /// Canonical LR(1) states visited.
    pub states: usize,
    /// LR(0) cores explored: those from which a candidate is reachable.
    pub cores: usize,
}

/// Counts the conflicts of the canonical LR(1) states whose LR(0) core is
/// one of `candidates`, exploring only cores from which a candidate is
/// reachable.
///
/// Every canonical LR(1) state with such a core is reached through such
/// cores alone, since each core on a path to a candidate can reach it, so
/// the count is exact for the candidates. A canonical conflict survives
/// the merge of its state into its core, so with the LALR(1)-conflicted
/// states as candidates the count is the whole machine's; with every
/// state as a candidate the exploration visits the whole canonical
/// machine, state for state.
///
/// # Examples
///
/// ```
/// use lalr_automata::{count_lr1_conflicts, Lr0Automaton, Lr1Automaton};
/// use lalr_grammar::parse_grammar;
///
/// let g = parse_grammar("e : e \"+\" e | \"x\" ;")?;
/// let lr0 = Lr0Automaton::build(&g);
/// let knuth = Lr1Automaton::build(&g);
/// let all = count_lr1_conflicts(&g, &lr0, lr0.states());
/// assert_eq!(all.states, knuth.state_count());
/// assert_eq!(all.conflicts, knuth.conflict_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn count_lr1_conflicts(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    candidates: impl IntoIterator<Item = StateId>,
) -> Lr1ConflictCount {
    let n = lr0.state_count();
    let mut candidate = vec![false; n];
    for c in candidates {
        candidate[c.index()] = true;
    }
    let explored = reaching(lr0, &candidate);
    if !explored[StateId::START.index()] {
        return Lr1ConflictCount::default();
    }
    let recipes = Recipes::build(grammar, lr0, &candidate, &explored);
    let w = recipes.words;
    let kernel_len = |q: u32| lr0.kernel(StateId(q)).len();

    let mut states = States::default();
    let mut work: Vec<u32> = Vec::new();
    let start = lr0.kernel(StateId::START).items();
    let mut next = vec![0usize; start.len() * w];
    let accept = start
        .binary_search(&Item::start_of(ProdId::START))
        .expect("the start kernel holds the augmented item");
    next[accept * w + Terminal::EOF.index() / WORD] |= 1 << (Terminal::EOF.index() % WORD);
    work.extend(states.intern(0, &next));

    let mut conflicts = 0;
    let mut rows: Vec<usize> = Vec::new();
    let mut reduced: Vec<usize> = Vec::new();
    while let Some(s) = work.pop() {
        let q = states.core[s as usize];
        let lo = states.at[s as usize];
        rows.clear();
        rows.extend_from_slice(&states.slab[lo..lo + kernel_len(q) * w]);
        if candidate[q as usize] {
            reduced.clear();
            for recipe in recipes.reductions(q) {
                let end = reduced.len();
                reduced.resize(end + w, 0);
                recipes.apply(recipe, &rows, &mut reduced[end..]);
            }
            conflicts += count_conflicts(&reduced, recipes.shifts(q), w);
        }
        for &(r, first) in recipes.successors(q) {
            next.clear();
            next.resize(kernel_len(r) * w, 0);
            for (j, out) in next.chunks_exact_mut(w).enumerate() {
                recipes.apply(recipes.recipe(first as usize + j), &rows, out);
            }
            work.extend(states.intern(r, &next));
        }
    }

    Lr1ConflictCount {
        conflicts,
        states: states.core.len(),
        cores: explored.iter().filter(|&&e| e).count(),
    }
}

/// The canonical states found so far: a core and one row per kernel item
/// each, the rows in one slab, interned by hash with equal hashes chained.
#[derive(Default)]
struct States {
    core: Vec<u32>,
    at: Vec<usize>,
    slab: Vec<usize>,
    heads: FxHashMap<u64, u32>,
    chain: Vec<u32>,
}

impl States {
    /// The id of a state not seen before, or `None`.
    fn intern(&mut self, q: u32, rows: &[usize]) -> Option<u32> {
        let mut h = FxHasher::default();
        h.write_u32(q);
        for &word in rows {
            h.write_usize(word);
        }
        let head = self.heads.entry(h.finish()).or_insert(NONE);
        let mut s = *head;
        while s != NONE {
            let i = s as usize;
            if self.core[i] == q && &self.slab[self.at[i]..self.at[i] + rows.len()] == rows {
                return None;
            }
            s = self.chain[i];
        }
        let id = self.core.len() as u32;
        self.chain.push(*head);
        *head = id;
        self.core.push(q);
        self.at.push(self.slab.len());
        self.slab.extend_from_slice(rows);
        Some(id)
    }
}

/// The states from which a state marked in `targets` is reachable, by a
/// search back over the automaton's in-edges.
fn reaching(lr0: &Lr0Automaton, targets: &[bool]) -> Vec<bool> {
    let n = lr0.state_count();
    let mut offsets = vec![0u32; n + 1];
    for p in lr0.states() {
        for &(_, to) in lr0.transitions(p) {
            offsets[to.index() + 1] += 1;
        }
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut preds = vec![0u32; offsets[n] as usize];
    let mut fill = offsets.clone();
    for p in lr0.states() {
        for &(_, to) in lr0.transitions(p) {
            preds[fill[to.index()] as usize] = p.0;
            fill[to.index()] += 1;
        }
    }
    let mut seen = targets.to_vec();
    let mut stack: Vec<u32> = (0..n as u32).filter(|&s| seen[s as usize]).collect();
    while let Some(s) = stack.pop() {
        for &p in &preds[offsets[s as usize] as usize..offsets[s as usize + 1] as usize] {
            if !seen[p as usize] {
                seen[p as usize] = true;
                stack.push(p);
            }
        }
    }
    seen
}

/// The look-ahead recipes of every explored core.
///
/// A recipe is one closure look-ahead set under the marker kernel:
/// `words` words of spontaneous terminals, then the marker columns, bit
/// `i` standing for kernel item `i`'s set.
struct Recipes {
    /// Words per terminal row.
    words: usize,
    /// Words per recipe.
    stride: usize,
    recipes: Vec<usize>,
    /// CSR over cores: core `q`'s explored successors are
    /// `successors[succ_off[q] .. succ_off[q + 1]]`, each `(target, first)`
    /// with the target's kernel item `j` made by recipe `first + j`.
    succ_off: Vec<u32>,
    successors: Vec<(u32, u32)>,
    /// Per candidate core, its reductions' recipes `(first, end)`.
    reductions: Vec<(u32, u32)>,
    /// Per candidate core, its shifted terminals as a `words`-word row.
    shifts: Vec<usize>,
}

impl Recipes {
    fn build(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        candidate: &[bool],
        explored: &[bool],
    ) -> Recipes {
        let n = lr0.state_count();
        let words = grammar.terminal_count().div_ceil(WORD);
        let max_kernel = lr0.states().map(|q| lr0.kernel(q).len()).max().unwrap_or(0);
        // Markers start on a word boundary, so a recipe's first `words`
        // words are its terminals.
        let width = words * WORD + max_kernel;
        let stride = width.div_ceil(WORD);
        let mut closure = Lr1Closure::new(grammar, width);
        let mut out = Recipes {
            words,
            stride,
            recipes: Vec::new(),
            succ_off: Vec::with_capacity(n + 1),
            successors: Vec::new(),
            reductions: vec![(0, 0); n],
            shifts: vec![0; n * words],
        };
        out.succ_off.push(0);
        let mut marked: Vec<(Item, BitSet)> = Vec::new();
        let mut first_of: Vec<u32> = Vec::new();
        for q in lr0.states() {
            if !explored[q.index()] {
                out.succ_off.push(out.successors.len() as u32);
                continue;
            }
            // One recipe block per explored successor, in transition order.
            let transitions = lr0.transitions(q);
            first_of.clear();
            let mut end = (out.recipes.len() / stride) as u32;
            for &(_, to) in transitions {
                if explored[to.index()] {
                    first_of.push(end);
                    out.successors.push((to.0, end));
                    end += lr0.kernel(to).len() as u32;
                } else {
                    first_of.push(NONE);
                }
            }
            out.succ_off.push(out.successors.len() as u32);
            out.recipes.resize(end as usize * stride, 0);

            let kernel = lr0.kernel(q).items();
            if marked.len() < kernel.len() {
                marked.resize(
                    kernel.len(),
                    (Item::start_of(ProdId::START), BitSet::new(width)),
                );
            }
            for (i, (slot, &item)) in marked.iter_mut().zip(kernel).enumerate() {
                slot.0 = item;
                slot.1.clear();
                slot.1.insert(words * WORD + i);
            }
            let is_candidate = candidate[q.index()];
            let recipes = &mut out.recipes;
            closure.close(&marked[..kernel.len()], |item, la| {
                match item.next_symbol(grammar) {
                    Some(sym) => {
                        let t = transitions
                            .binary_search_by_key(&sym, |&(s, _)| s)
                            .expect("a closure item's symbol has a transition");
                        if first_of[t] == NONE {
                            return;
                        }
                        let j = lr0
                            .kernel(transitions[t].1)
                            .items()
                            .binary_search(&item.advanced())
                            .expect("an advanced item is in its successor's kernel");
                        let at = (first_of[t] as usize + j) * stride;
                        recipes[at..at + stride].copy_from_slice(la.as_words());
                    }
                    None if is_candidate => recipes.extend_from_slice(la.as_words()),
                    None => {}
                }
            });
            if is_candidate {
                out.reductions[q.index()] = (end, (out.recipes.len() / stride) as u32);
                let shifts = &mut out.shifts[q.index() * words..(q.index() + 1) * words];
                for t in lr0.shift_symbols(q) {
                    shifts[t.index() / WORD] |= 1 << (t.index() % WORD);
                }
            }
        }
        out
    }

    fn recipe(&self, i: usize) -> &[usize] {
        &self.recipes[i * self.stride..(i + 1) * self.stride]
    }

    fn successors(&self, q: u32) -> &[(u32, u32)] {
        &self.successors[self.succ_off[q as usize] as usize..self.succ_off[q as usize + 1] as usize]
    }

    fn reductions(&self, q: u32) -> impl Iterator<Item = &[usize]> {
        let (first, end) = self.reductions[q as usize];
        (first as usize..end as usize).map(|i| self.recipe(i))
    }

    fn shifts(&self, q: u32) -> &[usize] {
        &self.shifts[q as usize * self.words..(q as usize + 1) * self.words]
    }

    /// Writes `recipe`'s set into `out`: its terminals, plus the kernel row
    /// of every marker it carries.
    fn apply(&self, recipe: &[usize], kernel_rows: &[usize], out: &mut [usize]) {
        let w = self.words;
        out.copy_from_slice(&recipe[..w]);
        for (k, &word) in recipe[w..].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = k * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (o, &r) in out.iter_mut().zip(&kernel_rows[i * w..(i + 1) * w]) {
                    *o |= r;
                }
            }
        }
    }
}

/// One state's conflicts from its reductions' rows and its shifted
/// terminals: each shifted terminal in a reduction's set, and each
/// terminal two reductions share.
fn count_conflicts(reduced: &[usize], shifts: &[usize], w: usize) -> usize {
    let overlap = |a: &[usize], b: &[usize]| -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    };
    let mut count = 0;
    for (i, a) in reduced.chunks_exact(w).enumerate() {
        count += overlap(a, shifts);
        for b in reduced[(i + 1) * w..].chunks_exact(w) {
            count += overlap(a, b);
        }
    }
    count
}
