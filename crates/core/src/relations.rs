//! The paper's four relations over nonterminal transitions.

use lalr_automata::{Lr0Automaton, NtTransId, ReductionId, ReductionIndex, StateId};
use lalr_bitset::BitMatrix;
use lalr_digraph::{tarjan_scc, DigraphStats, Graph};
use lalr_grammar::analysis::NullableSet;
use lalr_grammar::{Grammar, ProdId, Symbol, Terminal};

/// Structural statistics of the relations (experiment **E1**/**E5**).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelationStats {
    /// Nonterminal transitions (nodes of `reads`/`includes`).
    pub nt_transitions: usize,
    /// Edges of `reads`.
    pub reads_edges: usize,
    /// Edges of `includes`.
    pub includes_edges: usize,
    /// Lookback edges (reduction point → nonterminal transition).
    pub lookback_edges: usize,
    /// Nontrivial SCCs of `reads` (a nonempty value proves non-LR(k)).
    pub reads_nontrivial_sccs: usize,
    /// Nontrivial SCCs of `includes`.
    pub includes_nontrivial_sccs: usize,
    /// Size of the largest `includes` SCC.
    pub includes_max_scc: usize,
}

impl RelationStats {
    /// `|R|` = nonterminal transitions + `reads` + `includes` + lookback
    /// edges: the size the paper's look-ahead computation is linear in.
    pub fn size(&self) -> usize {
        self.nt_transitions + self.reads_edges + self.includes_edges + self.lookback_edges
    }
}

/// `DR`, `reads`, `includes` and `lookback` for one grammar + automaton.
///
/// Nodes of the two graphs are [`NtTransId`]s; `lookback` maps each
/// reduction point `(q, A→ω)` to the nonterminal transitions `(p, A)` with
/// `p --ω--> q`.
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::Relations;
/// use lalr_grammar::parse_grammar;
///
/// let g = parse_grammar("s : a s | \"x\" ; a : \"y\" | ;")?;
/// let lr0 = Lr0Automaton::build(&g);
/// let rel = Relations::build(&g, &lr0);
/// let stats = rel.stats();
/// assert!(stats.reads_edges > 0, "nullable `a` induces reads edges");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Relations {
    dr: BitMatrix,
    reads: Graph,
    includes: Graph,
    /// Dense enumeration of reduction points — the row space of lookback.
    reductions: ReductionIndex,
    /// CSR lookback: the transitions reduction point `r` looks back to are
    /// `lookback_slab[lookback_offsets[r] .. lookback_offsets[r + 1]]`.
    lookback_offsets: Vec<u32>,
    lookback_slab: Vec<NtTransId>,
    nullable: NullableSet,
}

/// Marks a predecessor edge on a terminal (it carries no transition id).
const NO_TRANSITION: u32 = u32::MAX;

/// A stable counting sort of `(key, value)` pairs into CSR: the values
/// with key `k`, in input order, are `values[offsets[k] .. offsets[k + 1]]`.
/// `pairs` is called three times: to count, for a filler value, and to
/// scatter.
struct Buckets<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> Buckets<T> {
    fn new<I: Iterator<Item = (u32, T)>>(keys: usize, pairs: impl Fn() -> I) -> Buckets<T> {
        let mut offsets = vec![0u32; keys + 1];
        // `for_each` iterates nested sources internally, which external
        // `next` calls through a `flat_map` do not.
        pairs().for_each(|(k, _)| offsets[k as usize + 1] += 1);
        for i in 1..=keys {
            offsets[i] += offsets[i - 1];
        }
        // Every slot is overwritten; the first value is only a filler.
        let mut values = match pairs().next() {
            Some((_, v)) => vec![v; offsets[keys] as usize],
            None => Vec::new(),
        };
        // Scatter with `offsets[k]` as key `k`'s cursor, then shift the
        // cursors (which end on the next key's start) back.
        pairs().for_each(|(k, v)| {
            let cursor = &mut offsets[k as usize];
            values[*cursor as usize] = v;
            *cursor += 1;
        });
        offsets.copy_within(0..keys, 1);
        offsets[0] = 0;
        Buckets { offsets, values }
    }

    #[inline]
    fn get(&self, key: usize) -> &[T] {
        &self.values[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

/// The in-edges of every LR(0) state, in CSR form: `get(s)` lists a
/// `(p, id)` pair for each `p --X--> s`, in ascending `p`, with `id` the
/// nonterminal transition `(p, X)` or [`NO_TRANSITION`] when `X` is a
/// terminal. Every in-edge of `s` is labelled with the accessing symbol
/// of `s`, so walking them back never searches by symbol.
fn predecessors(lr0: &Lr0Automaton) -> Buckets<(u32, u32)> {
    Buckets::new(lr0.state_count(), || {
        lr0.states().flat_map(|p| {
            // Transitions are symbol-sorted and nonterminal transition
            // ids are assigned in that order, so the run is consumed in
            // step.
            let mut run = lr0.nt_transition_range(p);
            lr0.transitions(p).iter().map(move |&(sym, to)| {
                let id = match sym {
                    Symbol::Terminal(_) => NO_TRANSITION,
                    Symbol::NonTerminal(_) => run.next().expect("one id per transition") as u32,
                };
                (to.index() as u32, (p.index() as u32, id))
            })
        })
    })
}

impl Relations {
    /// Builds all four relations.
    pub fn build(grammar: &Grammar, lr0: &Lr0Automaton) -> Relations {
        let nullable = lalr_grammar::analysis::nullable(grammar);
        Relations::build_with(grammar, lr0, nullable)
    }

    /// [`Relations::build`] under an observer: the build runs inside a
    /// `relations.build` span and — when the recorder is enabled —
    /// reports the edge counts of all three relations. The counters come
    /// from the built adjacency structures directly (no SCC pass; see
    /// [`Relations::stats`] for the expensive structural statistics).
    pub fn build_recorded(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        rec: &dyn lalr_obs::Recorder,
    ) -> Relations {
        let _span = lalr_obs::span(rec, "relations.build");
        let relations = Relations::build(grammar, lr0);
        if rec.is_enabled() {
            rec.add("relations.nodes", relations.reads.node_count() as u64);
            rec.add("relations.reads_edges", relations.reads.edge_count() as u64);
            rec.add(
                "relations.includes_edges",
                relations.includes.edge_count() as u64,
            );
            rec.add(
                "relations.lookback_edges",
                relations.lookback_slab.len() as u64,
            );
        }
        relations
    }

    /// Builds all four relations reusing a precomputed nullable set.
    ///
    /// `DR` and `reads` rows depend only on a transition's target state,
    /// so each target's rows are built once, at the first transition into
    /// it, and copied to the others; `reads` is written straight into CSR.
    ///
    /// `includes` and `lookback` come from one backward pass: each
    /// reduction point `(q, A→ω)` is walked back `|ω|` steps over the
    /// automaton's predecessor edges, which enumerates exactly the paths
    /// `p --ω--> q`. Each path yields the lookback edge to `(p, A)` and,
    /// at the positions of `ω` followed by a nullable suffix, the
    /// `includes` edges whose sources ride on the predecessor edges. The
    /// points are walked grouped by left-hand side, so a path's end reads
    /// `(p, A)` from a per-state slot filled for `A`'s transitions
    /// instead of searching `p`'s. Both relations come out sorted by
    /// (source, target).
    pub fn build_with(grammar: &Grammar, lr0: &Lr0Automaton, nullable: NullableSet) -> Relations {
        let nts = lr0.nt_transitions();
        let n = nts.len();
        let accept = lr0.accept_state(grammar);

        // DR(p, A) = { t : p --A--> r --t--> }, plus $ for the transition
        // that reaches the accept state (reading `A` there means end of
        // input may follow — the paper's `S' → S ⊣` augmentation).
        // (p, A) reads (r, C) iff p --A--> r --C--> and C nullable; the
        // candidates are r's run of nonterminal transitions.
        let mut first_into = vec![NO_TRANSITION; lr0.state_count()];
        let mut dr = BitMatrix::new(n, grammar.terminal_count());
        let mut reads_offsets = Vec::with_capacity(n + 1);
        reads_offsets.push(0u32);
        let mut reads_targets: Vec<u32> = Vec::new();
        for (i, t) in nts.iter().enumerate() {
            let first = &mut first_into[t.to.index()];
            if *first == NO_TRANSITION {
                *first = i as u32;
                for term in lr0.shift_symbols(t.to) {
                    dr.set(i, term.index());
                }
                if t.to == accept {
                    dr.set(i, Terminal::EOF.index());
                }
                reads_targets.extend(
                    lr0.nt_transition_range(t.to)
                        .filter(|&j| nullable.contains(nts[j].nt))
                        .map(|j| j as u32),
                );
            } else {
                let f = *first as usize;
                dr.copy_row(i, f);
                reads_targets
                    .extend_from_within(reads_offsets[f] as usize..reads_offsets[f + 1] as usize);
            }
            reads_offsets.push(reads_targets.len() as u32);
        }
        let reads = Graph::from_csr(reads_offsets, reads_targets);

        // includes and lookback, by walking every reduction point back:
        //   (p, A) includes (p', B)  iff  B → β A γ, γ ⇒* ε, p' --β--> p
        //   (q, A→ω) lookback (p, A) iff  p --ω--> q
        // Positions `k >= tail[prod]` of a body have a nullable suffix.
        let tail: Vec<u32> = grammar
            .productions()
            .iter()
            .map(|p| {
                let rhs = p.rhs();
                let suffix = rhs
                    .iter()
                    .rev()
                    .take_while(|&&s| matches!(s, Symbol::NonTerminal(c) if nullable.contains(c)))
                    .count();
                (rhs.len() - suffix).saturating_sub(1) as u32
            })
            .collect();
        let max_rhs = grammar.productions().iter().map(|p| p.len()).max();
        let preds = predecessors(lr0);
        let reductions = ReductionIndex::from_lr0(lr0);
        let lhs_of = |pid: ProdId| grammar.production(pid).lhs().index() as u32;
        let n_nts = grammar.nonterminal_count();
        let points_by_lhs = Buckets::new(n_nts, || {
            reductions
                .iter()
                .filter(|&(_, _, pid)| pid != ProdId::START)
                .map(|(r, q, pid)| (lhs_of(pid), (r, q.index() as u32, pid)))
        });
        let transitions_by_nt = Buckets::new(n_nts, || {
            nts.iter()
                .enumerate()
                .map(|(j, t)| (t.nt.index() as u32, j as u32))
        });
        // `slot[p]` is the transition `(p, A)` while the points of `A` are
        // walked.
        let mut slot = vec![NO_TRANSITION; lr0.state_count()];
        // `rows[r]` is reduction point `r`'s lookback row in `ends`.
        let mut rows = vec![(0u32, 0u32); reductions.len()];
        let mut ends: Vec<NtTransId> = Vec::with_capacity(reductions.len());
        let mut includes_pairs: Vec<(u32, u32)> = Vec::new();
        // `path[k]` is the transition id on the current path's edge over
        // body position `k`; `stack` holds `(state, k, id)` with `state`
        // the one before position `k` and `id` its edge over it.
        let mut path = vec![NO_TRANSITION; max_rhs.unwrap_or(0)];
        let mut stack: Vec<(u32, u32, u32)> = Vec::new();
        for a in 0..n_nts {
            for &j in transitions_by_nt.get(a) {
                slot[nts[j as usize].from.index()] = j;
            }
            for &(r, q, pid) in points_by_lhs.get(a) {
                let len = grammar.production(pid).len();
                let start = ends.len();
                stack.push((q, len as u32, NO_TRANSITION));
                while let Some((s, k, id)) = stack.pop() {
                    let k = k as usize;
                    if k < len {
                        path[k] = id;
                    }
                    if k > 0 {
                        stack.extend(
                            preds
                                .get(s as usize)
                                .iter()
                                .map(|&(p, id)| (p, k as u32 - 1, id)),
                        );
                        continue;
                    }
                    // A body's start state has a transition on its LHS.
                    let j = slot[s as usize];
                    debug_assert_eq!(nts[j as usize].nt.index(), a);
                    ends.push(NtTransId::new(j as usize));
                    includes_pairs.extend(
                        path[tail[pid.index()] as usize..len]
                            .iter()
                            .filter(|&&i| i != NO_TRANSITION)
                            .map(|&i| (i, j)),
                    );
                }
                ends[start..].sort_unstable();
                rows[r.index()] = (start as u32, ends.len() as u32);
            }
        }
        // Lay the lookback rows out in reduction-id order.
        let mut lookback_offsets = Vec::with_capacity(reductions.len() + 1);
        lookback_offsets.push(0u32);
        let mut lookback_slab: Vec<NtTransId> = Vec::with_capacity(ends.len());
        for &(lo, hi) in &rows {
            lookback_slab.extend_from_slice(&ends[lo as usize..hi as usize]);
            lookback_offsets.push(lookback_slab.len() as u32);
        }

        // Transposing twice is a stable radix sort by (source, target), so
        // each row is sorted and its duplicates are adjacent.
        let by_target = Graph::from_edges(
            n,
            includes_pairs
                .iter()
                .map(|&(i, j)| (j as usize, i as usize)),
        );
        drop(includes_pairs);
        let includes = Graph::from_edges_dedup(n, by_target.edges().map(|(j, i)| (i, j)));

        Relations {
            dr,
            reads,
            includes,
            reductions,
            lookback_offsets,
            lookback_slab,
            nullable,
        }
    }

    /// The direct-read sets, one row per nonterminal transition.
    pub fn dr(&self) -> &BitMatrix {
        &self.dr
    }

    /// The `reads` relation.
    pub fn reads(&self) -> &Graph {
        &self.reads
    }

    /// The `includes` relation.
    pub fn includes(&self) -> &Graph {
        &self.includes
    }

    /// The dense enumeration of reduction points the lookback rows are
    /// indexed by.
    pub fn reduction_index(&self) -> &ReductionIndex {
        &self.reductions
    }

    /// The lookback row of a reduction point, by dense id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn lookback_row(&self, id: ReductionId) -> &[NtTransId] {
        let lo = self.lookback_offsets[id.index()] as usize;
        let hi = self.lookback_offsets[id.index() + 1] as usize;
        &self.lookback_slab[lo..hi]
    }

    /// The transitions `(p, A)` that reduction `(q, A→ω)` looks back to
    /// (empty for pairs that are not reduction points).
    pub fn lookback(&self, state: StateId, prod: ProdId) -> &[NtTransId] {
        self.reductions
            .id(state, prod)
            .map(|id| self.lookback_row(id))
            .unwrap_or(&[])
    }

    /// Iterates the non-empty lookback rows in dense-id order.
    pub fn lookback_entries(&self) -> impl Iterator<Item = (ReductionId, &[NtTransId])> {
        (0..self.reductions.len()).filter_map(move |i| {
            let id = ReductionId::new(i);
            let row = self.lookback_row(id);
            (!row.is_empty()).then_some((id, row))
        })
    }

    /// The nullable set the relations were built with.
    pub fn nullable(&self) -> &NullableSet {
        &self.nullable
    }

    /// Relation statistics (Table 1 / Figure 2 data), from an SCC pass
    /// over `reads` and `includes` of its own. `LalrAnalysis` takes the
    /// same numbers from its two Digraph traversals instead.
    pub fn stats(&self) -> RelationStats {
        let reads_scc = tarjan_scc(&self.reads);
        let includes_scc = tarjan_scc(&self.includes);
        let nontrivial = |sizes: &[usize]| sizes.iter().filter(|&&s| s > 1).count();
        let reads_sizes = reads_scc.sizes();
        let includes_sizes = includes_scc.sizes();
        RelationStats {
            reads_nontrivial_sccs: nontrivial(&reads_sizes)
                + (0..self.reads.node_count())
                    .filter(|&i| {
                        reads_sizes[reads_scc.component(i)] == 1 && self.reads.has_self_loop(i)
                    })
                    .count(),
            includes_nontrivial_sccs: nontrivial(&includes_sizes),
            includes_max_scc: includes_sizes.iter().copied().max().unwrap_or(0),
            ..self.edge_stats()
        }
    }

    /// [`Relations::stats`] without the SCC pass: the structural columns
    /// come from the Digraph traversals over these relations, which pop
    /// every SCC of both anyway — `reads_cycles` is the `reads` pass's
    /// [`TraversalCounts::cycles`](lalr_digraph::TraversalCounts::cycles),
    /// `includes` the `includes` pass's stats.
    pub(crate) fn stats_from_traversals(
        &self,
        reads_cycles: u64,
        includes: &DigraphStats,
    ) -> RelationStats {
        RelationStats {
            reads_nontrivial_sccs: reads_cycles as usize,
            includes_nontrivial_sccs: includes.nontrivial_sccs,
            includes_max_scc: includes.max_scc_size,
            ..self.edge_stats()
        }
    }

    /// The node and edge counts of [`RelationStats`].
    fn edge_stats(&self) -> RelationStats {
        RelationStats {
            nt_transitions: self.reads.node_count(),
            reads_edges: self.reads.edge_count(),
            includes_edges: self.includes.edge_count(),
            lookback_edges: self.lookback_slab.len(),
            ..RelationStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_automata::Lr0Automaton;
    use lalr_grammar::parse_grammar;

    fn setup(src: &str) -> (Grammar, Lr0Automaton) {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        (g, lr0)
    }

    #[test]
    fn dr_contains_shiftable_terminals() {
        let (g, lr0) = setup("e : e \"+\" \"x\" | \"x\" ;");
        let rel = Relations::build(&g, &lr0);
        // The transition (0, e) reaches the accept state where "+" shifts.
        let e = g.start();
        let i = lr0.nt_transition_id(StateId::START, e).unwrap();
        let plus = g.terminal_by_name("+").unwrap();
        assert!(rel.dr().get(i.index(), plus.index()));
        // And $ is in DR because the target is the accept state.
        assert!(rel.dr().get(i.index(), Terminal::EOF.index()));
    }

    #[test]
    fn reads_edges_only_for_nullable_successors() {
        let (g, lr0) = setup("s : a b ; a : \"x\" ; b : \"y\" | ;");
        let rel = Relations::build(&g, &lr0);
        // After the transition on `a`, a transition on nullable `b` follows:
        // (0-on-a) reads (that state, b). `a` is not nullable so the start
        // transition on `s`... has no reads successor.
        let a = g.nonterminal_by_name("a").unwrap();
        let i = lr0.nt_transition_id(StateId::START, a).unwrap();
        assert_eq!(rel.reads().successors(i.index()).len(), 1);
        let s_id = lr0.nt_transition_id(StateId::START, g.start()).unwrap();
        assert_eq!(rel.reads().successors(s_id.index()).len(), 0);
    }

    #[test]
    fn includes_respects_nullable_tails() {
        let (g, lr0) = setup("s : a b ; a : \"x\" ; b : \"y\" | ;");
        let rel = Relations::build(&g, &lr0);
        let a = g.nonterminal_by_name("a").unwrap();
        let b = g.nonterminal_by_name("b").unwrap();
        let s = g.start();
        let t_a = lr0.nt_transition_id(StateId::START, a).unwrap();
        let t_s = lr0.nt_transition_id(StateId::START, s).unwrap();
        // (0, a) includes (0, s) because s → a b with b nullable.
        assert!(rel
            .includes()
            .successors(t_a.index())
            .contains(&(t_s.index() as u32)));
        // (p, b) includes (0, s) because s → a b with empty tail.
        let p = lr0
            .transition(StateId::START, Symbol::NonTerminal(a))
            .unwrap();
        let t_b = lr0.nt_transition_id(p, b).unwrap();
        assert!(rel
            .includes()
            .successors(t_b.index())
            .contains(&(t_s.index() as u32)));
        // But (0, s) includes nothing: <start> → s has a non-nullable... no,
        // s IS the whole body, so (0,s) includes (0,<start>)? There is no
        // transition on <start>, hence no includes edge.
        assert!(rel.includes().successors(t_s.index()).is_empty());
    }

    #[test]
    fn lookback_pairs_reductions_with_sources() {
        let (g, lr0) = setup("e : e \"+\" t | t ; t : \"x\" ;");
        let rel = Relations::build(&g, &lr0);
        let e = g.start();
        let plus_prod = g.productions_of(e)[0]; // e → e + t
                                                // Walk e + t from state 0 to find the reduction state.
        let p = g.production(plus_prod);
        let q = lr0.walk(StateId::START, p.rhs()).unwrap();
        let lb = rel.lookback(q, plus_prod);
        assert_eq!(lb.len(), 1);
        assert_eq!(lr0.nt_transition(lb[0]).nt, e);
        assert_eq!(lr0.nt_transition(lb[0]).from, StateId::START);
    }

    #[test]
    fn epsilon_reduction_looks_back_to_its_own_state() {
        let (g, lr0) = setup("s : a \"x\" ; a : ;");
        let rel = Relations::build(&g, &lr0);
        let a = g.nonterminal_by_name("a").unwrap();
        let eps = g.productions_of(a)[0];
        // ω = ε: p --ε--> p, so lookback of (0, a→ε) is (0, a).
        let lb = rel.lookback(StateId::START, eps);
        assert_eq!(lb.len(), 1);
        let t = lr0.nt_transition(lb[0]);
        assert_eq!((t.from, t.nt), (StateId::START, a));
    }

    #[test]
    fn stats_count_edges() {
        let (g, lr0) = setup("s : a s | \"x\" ; a : \"y\" | ;");
        let rel = Relations::build(&g, &lr0);
        let st = rel.stats();
        assert_eq!(st.nt_transitions, lr0.nt_transitions().len());
        assert_eq!(st.reads_edges, rel.reads().edge_count());
        assert_eq!(st.includes_edges, rel.includes().edge_count());
        assert!(st.lookback_edges >= g.production_count() - 1);
        assert_eq!(
            st.size(),
            st.nt_transitions + st.reads_edges + st.includes_edges + st.lookback_edges
        );
    }

    #[test]
    fn left_recursion_makes_includes_cycles() {
        let (g, lr0) = setup("e : e \"+\" t | t ; t : \"x\" ;");
        let rel = Relations::build(&g, &lr0);
        // e → e + t: tail "+ t" not nullable ⇒ that occurrence adds no
        // includes edge; but e → t with t's transitions gives (p,t) incl
        // (p,e). No cycle here. Check a right-recursive one instead:
        assert_eq!(rel.stats().includes_nontrivial_sccs, 0);

        let (g2, lr02) = setup("e : t \"+\" e | t ; t : \"x\" ;");
        let rel2 = Relations::build(&g2, &lr02);
        // e → t + e: trailing e ⇒ (p, e) includes (p', e) chains; still a
        // DAG for this grammar. The real cycle test lives in the corpus
        // integration tests; here we only check stats are computed.
        let _ = rel2.stats();
    }
}
