//! Yacc-style LALR(1) look-aheads by spontaneous generation and
//! propagation.
//!
//! This is the pre-DeRemer–Pennello technique (Aho–Sethi–Ullman
//! Algorithm 4.63, what YACC's generation did): for each LR(0) kernel item,
//! compute the LR(1) closure with a *dummy* look-ahead `#`; concrete
//! look-aheads found on GOTO successors are **spontaneous**, while `#`
//! marks kernel-to-kernel **propagation** links. The links are then
//! iterated to a fixpoint. It yields the same sets as the paper's
//! algorithm (the integration tests assert this) but repeats closure work
//! per kernel item and iterates, which is exactly the inefficiency the
//! paper removes — this module is the timing baseline of experiment **E2**.

use lalr_automata::{Item, Lr0Automaton, Lr1Closure, StateId};
use lalr_bitset::BitSet;
use lalr_grammar::{Grammar, ProdId, Terminal};
use rustc_hash::FxHashMap;

use crate::lookahead::LookaheadSets;

/// Computes LALR(1) look-ahead sets via spontaneous generation and
/// propagation over LR(0) kernel items.
///
/// # Examples
///
/// ```
/// use lalr_automata::Lr0Automaton;
/// use lalr_core::{propagation_lookaheads, LalrAnalysis};
/// use lalr_grammar::parse_grammar;
///
/// let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;")?;
/// let lr0 = Lr0Automaton::build(&g);
/// let yacc_style = propagation_lookaheads(&g, &lr0);
/// let dp = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
/// assert!(yacc_style.agrees_with(&dp));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn propagation_lookaheads(grammar: &Grammar, lr0: &Lr0Automaton) -> LookaheadSets {
    propagation_recorded(grammar, lr0, &lalr_obs::NULL)
}

/// [`propagation_lookaheads`] under an observer: the three stages run in
/// spans (`prop.closure` — per-kernel LR(1) closures discovering
/// spontaneous look-aheads and links; `prop.fixpoint` — iterating the
/// links; `prop.emit` — the final per-state closure emission), with
/// kernel/link/pass counters. Table 9 uses this to attribute where the
/// propagation baseline spends its time.
pub fn propagation_recorded(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    rec: &dyn lalr_obs::Recorder,
) -> LookaheadSets {
    // The dummy "#" terminal gets one extra column past the real alphabet.
    let n_real = grammar.terminal_count();
    let n_cols = n_real + 1;
    let dummy = n_real;
    let mut closure = Lr1Closure::new(grammar, n_cols);

    // Enumerate kernel items: (state, item) → dense index.
    let closure_span = lalr_obs::span(rec, "prop.closure");
    let mut kernel_idx: FxHashMap<(StateId, Item), usize> = FxHashMap::default();
    let mut kernels: Vec<(StateId, Item)> = Vec::new();
    for state in lr0.states() {
        for &item in lr0.kernel(state).items() {
            kernel_idx.insert((state, item), kernels.len());
            kernels.push((state, item));
        }
    }

    // Look-ahead set per kernel item (over the real alphabet).
    let mut la: Vec<BitSet> = vec![BitSet::new(n_real); kernels.len()];
    // Propagation links between kernel items.
    let mut links: Vec<Vec<usize>> = vec![Vec::new(); kernels.len()];

    // The start kernel item spontaneously receives $.
    let start_item = Item::start_of(ProdId::START);
    la[kernel_idx[&(StateId::START, start_item)]].insert(Terminal::EOF.index());

    // Discover spontaneous look-aheads and propagation links by closing
    // each kernel item with the dummy look-ahead.
    let mut seed = BitSet::new(n_cols);
    seed.insert(dummy);
    let mut single = [(Item::start_of(ProdId::START), seed)];
    for (k, &(state, item)) in kernels.iter().enumerate() {
        single[0].0 = item;
        closure.close(&single, |cit, cla| {
            let Some(sym) = cit.next_symbol(grammar) else {
                return;
            };
            let target = lr0
                .transition(state, sym)
                .expect("closure item's transition exists");
            let tk = kernel_idx[&(target, cit.advanced())];
            for col in cla.iter() {
                if col == dummy {
                    links[k].push(tk);
                } else {
                    la[tk].insert(col);
                }
            }
        });
    }

    if rec.is_enabled() {
        rec.add("prop.kernel_items", kernels.len() as u64);
        let link_count: usize = links.iter().map(Vec::len).sum();
        rec.add("prop.links", link_count as u64);
    }
    drop(closure_span);

    // Iterate propagation to a fixpoint.
    let fixpoint_span = lalr_obs::span(rec, "prop.fixpoint");
    let mut passes = 0u64;
    let mut changed = true;
    while changed {
        changed = false;
        passes += 1;
        for k in 0..kernels.len() {
            if la[k].is_empty() {
                continue;
            }
            for &t in &links[k] {
                if t == k {
                    continue;
                }
                // Split-borrow the source and destination sets so the
                // union kernel runs without cloning the source each
                // pass.
                let (dst, src) = if t > k {
                    let (lo, hi) = la.split_at_mut(t);
                    (&mut hi[0], &lo[k])
                } else {
                    let (lo, hi) = la.split_at_mut(k);
                    (&mut lo[t], &hi[0])
                };
                changed |= dst.union_with(src);
            }
        }
    }
    if rec.is_enabled() {
        rec.add("prop.passes", passes);
    }
    drop(fixpoint_span);
    let _emit_span = lalr_obs::span(rec, "prop.emit");

    // Reductions of kernel items directly; reductions of non-kernel ε-items
    // via one more closure pass per state with the converged kernel LAs.
    let mut out = LookaheadSets::for_automaton(lr0, n_real);
    for state in lr0.states() {
        let kernel_with_la: Vec<(Item, BitSet)> = lr0
            .kernel(state)
            .items()
            .iter()
            .map(|&item| {
                let mut set = BitSet::new(n_cols);
                for b in la[kernel_idx[&(state, item)]].iter() {
                    set.insert(b);
                }
                (item, set)
            })
            .collect();
        closure.close(&kernel_with_la, |cit, cla| {
            if cit.is_final(grammar) {
                let mut real = BitSet::new(n_real);
                for col in cla.iter() {
                    if col != dummy {
                        real.insert(col);
                    }
                }
                out.union_into(state, cit.production(), &real);
            }
        });
    }
    // Reductions never reached with any look-ahead still need an entry.
    for state in lr0.states() {
        for &prod in lr0.reductions(state) {
            out.touch(state, prod);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LalrAnalysis;
    use lalr_grammar::parse_grammar;

    fn agree(src: &str) {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let prop = propagation_lookaheads(&g, &lr0);
        let dp = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        assert_eq!(prop, dp, "methods disagree on {src}");
    }

    #[test]
    fn agrees_with_dp_on_simple_grammars() {
        agree("s : \"a\" ;");
        agree("s : \"a\" s | \"b\" ;");
        agree("e : e \"+\" t | t ; t : \"x\" ;");
    }

    #[test]
    fn agrees_with_dp_on_nullable_heavy_grammar() {
        agree("s : a b c ; a : \"x\" | ; b : \"y\" | ; c : \"z\" | ;");
    }

    #[test]
    fn agrees_with_dp_on_lalr_not_slr() {
        agree("s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;");
    }

    #[test]
    fn agrees_with_dp_on_dragon_expression() {
        agree("e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;");
    }

    #[test]
    fn epsilon_reductions_get_lookaheads() {
        let g = parse_grammar("s : a \"x\" ; a : ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let prop = propagation_lookaheads(&g, &lr0);
        let a = g.nonterminal_by_name("a").unwrap();
        let eps = g.productions_of(a)[0];
        let la = prop.la(StateId::START, eps).unwrap();
        let x = g.terminal_by_name("x").unwrap();
        assert!(la.contains(x.index()));
        assert_eq!(la.count(), 1);
    }
}
