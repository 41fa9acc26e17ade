//! Tables on which the parser would reduce forever.
//!
//! A conflict-resolved table can make the parser reduce without end on
//! one look-ahead, building tree nodes until memory runs out. A
//! derivation cycle `A ⇒+ A` does it (`n6 : n6 ;`: the unit reduction
//! lands back in the state it left), and so does a reduction of an empty
//! production kept over a shift by precedence where the goto leads back
//! to the same state (`s : a s "c" | "b" ; a : %prec HIGH ;`): the stack
//! then grows by one state per reduction. [`reduce_loop`] clears nearly
//! every grammar from its rules and searches the table of any other,
//! once, so the parser's steps carry no counter.
//!
//! The search rests on one fact about a reduce-only run on a fixed
//! look-ahead: what happens above a state `q` that is not popped depends
//! on `q` and the state above it alone. Either the run ever pops lower
//! than some height again and again (then, at the lowest such height,
//! the states pushed on one fixed `q` repeat, a loop at one level), or
//! it pops each height only finitely often (then it nests forever, and a
//! state recurs inside its own run). Both show up as a node met again
//! while it is still being resolved.

use lalr_grammar::{Grammar, Symbol};
use lalr_tables::{Action, ParseTable};

/// Where the parser reduces forever: with `state` on top of the stack
/// and `terminal` as look-ahead, it never shifts, accepts or fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceLoop {
    /// The state whose reduction starts the endless run.
    pub state: u32,
    /// The look-ahead terminal.
    pub terminal: u32,
}

impl ReduceLoop {
    /// Why a parse with `table` is refused, naming the state and the
    /// look-ahead.
    pub fn message(&self, table: &ParseTable) -> String {
        format!(
            "the table reduces forever in state {} on {:?} (a derivation cycle, \
             or an empty reduction kept over a shift that returns to its state); \
             parsing with it would not end",
            self.state,
            table.terminal_name(self.terminal)
        )
    }
}

/// How a reduce-only run above a state that it does not pop ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A shift, accept, error or missing goto: the run stops.
    Stop,
    /// The run never ends.
    Loop,
    /// A reduction pops the state above the base and `depth - 1` more
    /// below it, then goes to `GOTO[exposed][lhs]`.
    Pop { depth: u32, lhs: u32 },
}

/// Finds a state and look-ahead from which [`crate::Parser`] would
/// reduce forever on `table`, built from `grammar`, or `None` when every
/// run on every look-ahead ends, plain or recovering. The grammar's
/// rules clear nearly every table without reading ACTION; any other is
/// searched.
pub fn reduce_loop(grammar: &Grammar, table: &ParseTable) -> Option<ReduceLoop> {
    if may_reduce_forever(grammar, table) {
        find_loop(table)
    } else {
        None
    }
}

/// Whether `table`, built from `grammar`, can make the parser reduce
/// forever; `false` settles it without reading ACTION. A run reduces
/// forever only at one level, which needs a derivation cycle `A ⇒+ A`,
/// or by nesting forever, which pushes a cycle of gotos on nullable
/// nonterminals. Linear in the grammar and in the GOTO cells of its
/// nullable nonterminals.
fn may_reduce_forever(grammar: &Grammar, table: &ParseTable) -> bool {
    let nullable = lalr_grammar::analysis::nullable(grammar);
    // `A ⇒ B` when `A → α B β` with `α` and `β` nullable.
    let mut derives = vec![Vec::new(); grammar.nonterminal_count()];
    for p in grammar.productions() {
        let unnullable = p
            .rhs()
            .iter()
            .filter(|&&x| !nullable.symbol_nullable(x))
            .count();
        for &x in p.rhs() {
            if let Symbol::NonTerminal(b) = x {
                if unnullable <= usize::from(!nullable.contains(b)) {
                    derives[p.lhs().index()].push(b.index());
                }
            }
        }
    }
    if has_cycle(&derives) {
        return true;
    }
    let mut nullable_gotos = vec![Vec::new(); table.state_count() as usize];
    for b in nullable.iter() {
        for (from, gotos) in nullable_gotos.iter_mut().enumerate() {
            if let Some(to) = table.goto(from as u32, b.index() as u32) {
                gotos.push(to as usize);
            }
        }
    }
    has_cycle(&nullable_gotos)
}

/// The search behind [`reduce_loop`], which reads every ACTION cell. A
/// forward pass finds the states the parser can ever push; each
/// reduction in such a state, on any look-ahead, then starts a memoized
/// search of the run it begins. Any look-ahead, because panic-mode
/// recovery resumes with any stacked state on top and any of the
/// caller's sync terminals next.
fn find_loop(table: &ParseTable) -> Option<ReduceLoop> {
    let mut exposed = Exposed::new(table);
    let pushed = exposed.pushable();
    let mut search = Search::new(table);
    for terminal in 0..table.terminal_count() {
        search.start_terminal(terminal);
        for state in (0..table.state_count()).filter(|&s| pushed[s as usize]) {
            let Action::Reduce(prod) = table.action(state, terminal) else {
                continue;
            };
            // An empty reduction nests a run above `state`; any other
            // starts a run above each state it can expose.
            for &node in exposed.nodes(state, prod) {
                if search.resolve(node) == Outcome::Loop {
                    return Some(ReduceLoop { state, terminal });
                }
            }
        }
    }
    None
}

/// Whether the graph given as adjacency lists has a cycle (an iterative
/// depth-first search with three colours).
fn has_cycle(edges: &[Vec<usize>]) -> bool {
    const NEW: u8 = 0;
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    let mut colour = vec![NEW; edges.len()];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..edges.len() {
        if colour[root] != NEW {
            continue;
        }
        colour[root] = OPEN;
        stack.push((root, 0));
        while let Some((v, next)) = stack.last_mut() {
            let v = *v;
            if let Some(&w) = edges[v].get(*next) {
                *next += 1;
                match colour[w] {
                    OPEN => return true,
                    NEW => {
                        colour[w] = OPEN;
                        stack.push((w, 0));
                    }
                    _ => {}
                }
            } else {
                colour[v] = DONE;
                stack.pop();
            }
        }
    }
    false
}

/// The states a reduction can expose, found through the predecessor
/// edges of the automaton the table encodes (its shifts and gotos), and
/// the nodes `(q, lhs)` it starts, cached per (state, production).
struct Exposed<'t> {
    table: &'t ParseTable,
    /// Predecessors of each state, as CSR rows.
    pred_starts: Vec<u32>,
    preds: Vec<u32>,
    cache: std::collections::HashMap<(u32, u32), Vec<usize>>,
    /// Walk stamps for the breadth-first walks back.
    seen: Vec<u32>,
    walk: u32,
}

impl<'t> Exposed<'t> {
    fn new(table: &'t ParseTable) -> Self {
        let states = table.state_count();
        let edges = || {
            (0..states).flat_map(move |q| {
                let shifts =
                    (0..table.terminal_count()).filter_map(move |t| match table.action(q, t) {
                        Action::Shift(next) => Some((next, q)),
                        _ => None,
                    });
                let gotos = (0..table.nonterminal_count())
                    .filter_map(move |b| Some((table.goto(q, b)?, q)));
                shifts.chain(gotos)
            })
        };
        let mut pred_starts = vec![0u32; states as usize + 1];
        for (to, _) in edges() {
            pred_starts[to as usize + 1] += 1;
        }
        for s in 0..states as usize {
            pred_starts[s + 1] += pred_starts[s];
        }
        let mut fill = pred_starts.clone();
        let mut preds = vec![0u32; pred_starts[states as usize] as usize];
        for (to, from) in edges() {
            preds[fill[to as usize] as usize] = from;
            fill[to as usize] += 1;
        }
        Exposed {
            table,
            pred_starts,
            preds,
            cache: std::collections::HashMap::new(),
            seen: vec![0; states as usize],
            walk: 0,
        }
    }

    /// The nodes a reduction by `prod` in `state` starts: `(state, lhs)`
    /// for an empty production, else `(q, lhs)` for every `q` with a path
    /// of `rhs_len` edges to `state` and a goto on `lhs`.
    fn nodes(&mut self, state: u32, prod: u32) -> &[usize] {
        let table = self.table;
        let n = table.nonterminal_count() as usize;
        let info = table.production(prod);
        if !self.cache.contains_key(&(state, prod)) {
            let mut frontier = vec![state];
            for _ in 0..info.rhs_len {
                self.walk += 1;
                let mut next = Vec::new();
                for &s in &frontier {
                    let row = self.pred_starts[s as usize] as usize
                        ..self.pred_starts[s as usize + 1] as usize;
                    for &q in &self.preds[row] {
                        if self.seen[q as usize] != self.walk {
                            self.seen[q as usize] = self.walk;
                            next.push(q);
                        }
                    }
                }
                frontier = next;
            }
            let nodes = frontier
                .into_iter()
                .filter(|&q| table.goto(q, info.lhs).is_some())
                .map(|q| q as usize * n + info.lhs as usize)
                .collect();
            self.cache.insert((state, prod), nodes);
        }
        &self.cache[&(state, prod)]
    }

    /// Which states the parser can ever push, one flag per state: the
    /// start state, and the shift and goto targets out of each such
    /// state on every look-ahead. States that only losing actions lead
    /// to stay clear, and so do their loops.
    fn pushable(&mut self) -> Vec<bool> {
        let table = self.table;
        let n = table.nonterminal_count() as usize;
        let mut pushed = vec![false; table.state_count() as usize];
        pushed[0] = true;
        let mut work = vec![0];
        while let Some(s) = work.pop() {
            for t in 0..table.terminal_count() {
                let mut push = |next: u32| {
                    if !pushed[next as usize] {
                        pushed[next as usize] = true;
                        work.push(next);
                    }
                };
                match table.action(s, t) {
                    Action::Shift(next) => push(next),
                    Action::Reduce(prod) => {
                        for &node in self.nodes(s, prod) {
                            let (q, lhs) = ((node / n) as u32, (node % n) as u32);
                            push(table.goto(q, lhs).expect("nodes have gotos"));
                        }
                    }
                    _ => {}
                }
            }
        }
        pushed
    }
}

/// The memoized search over nodes `(q, B)`: "`B` was just reduced with
/// `q` exposed", whose outcome is that of the run above `q`.
struct Search<'t> {
    table: &'t ParseTable,
    nonterminals: usize,
    terminal: u32,
    /// Per node: `2·generation` while resolving, `2·generation + 1` once
    /// resolved; anything else means not met on this look-ahead.
    marks: Vec<u32>,
    outcomes: Vec<Outcome>,
    generation: u32,
}

/// A node under resolution and what it waits for.
#[derive(Clone, Copy)]
struct Frame {
    node: usize,
    waits: Wait,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Not started.
    Start,
    /// The run nested above its occupant by an empty reduction.
    Nested,
    /// The node its run goes on as, at the same level.
    Same,
}

impl<'t> Search<'t> {
    fn new(table: &'t ParseTable) -> Self {
        let states = table.state_count() as usize;
        let nonterminals = table.nonterminal_count() as usize;
        let nodes = states * nonterminals;
        Search {
            table,
            nonterminals,
            terminal: 0,
            marks: vec![0; nodes],
            outcomes: vec![Outcome::Stop; nodes],
            generation: 0,
        }
    }

    fn start_terminal(&mut self, terminal: u32) {
        self.terminal = terminal;
        self.generation += 1;
    }

    fn node(&self, q: u32, lhs: u32) -> usize {
        q as usize * self.nonterminals + lhs as usize
    }

    /// The outcome of `node` if it is resolved or being resolved (a node
    /// met again while being resolved is a loop).
    fn known(&self, node: usize) -> Option<Outcome> {
        let mark = self.marks[node];
        if mark == 2 * self.generation {
            Some(Outcome::Loop)
        } else if mark == 2 * self.generation + 1 {
            Some(self.outcomes[node])
        } else {
            None
        }
    }

    /// What the occupant `GOTO[q][B]` of `node` does first: stop, pop
    /// (`Ok`), or nest a run above itself by an empty reduction (`Err`,
    /// that run's node).
    fn occupant(&self, node: usize) -> Result<Outcome, usize> {
        let (q, b) = (node / self.nonterminals, node % self.nonterminals);
        let Some(occupant) = self.table.goto(q as u32, b as u32) else {
            return Ok(Outcome::Stop);
        };
        let Action::Reduce(prod) = self.table.action(occupant, self.terminal) else {
            return Ok(Outcome::Stop);
        };
        let info = self.table.production(prod);
        if info.rhs_len == 0 {
            Err(self.node(occupant, info.lhs))
        } else {
            Ok(Outcome::Pop {
                depth: info.rhs_len,
                lhs: info.lhs,
            })
        }
    }

    /// Resolves `start` without recursion (nesting can be as deep as the
    /// table has states): one frame per node being resolved, each
    /// waiting for the frame above it.
    fn resolve(&mut self, start: usize) -> Outcome {
        if let Some(known) = self.known(start) {
            return known;
        }
        let mut stack = vec![Frame {
            node: start,
            waits: Wait::Start,
        }];
        let mut answer = Outcome::Stop;
        while let Some(frame) = stack.last().copied() {
            let node = frame.node;
            // How the occupant's run ends (it popped the occupant).
            let occupant = match frame.waits {
                Wait::Start => {
                    self.marks[node] = 2 * self.generation;
                    match self.occupant(node) {
                        Ok(outcome) => outcome,
                        Err(nested) => match self.known(nested) {
                            Some(outcome) => outcome,
                            None => {
                                self.wait(&mut stack, Wait::Nested, nested);
                                continue;
                            }
                        },
                    }
                }
                Wait::Nested => answer,
                Wait::Same => {
                    answer = self.finish(&mut stack, answer);
                    continue;
                }
            };
            let own = match occupant {
                // Back to this level: the run goes on as another node.
                Outcome::Pop { depth: 1, lhs } => {
                    let next = self.node((node / self.nonterminals) as u32, lhs);
                    match self.known(next) {
                        Some(outcome) => outcome,
                        None => {
                            self.wait(&mut stack, Wait::Same, next);
                            continue;
                        }
                    }
                }
                Outcome::Pop { depth, lhs } => Outcome::Pop {
                    depth: depth - 1,
                    lhs,
                },
                other => other,
            };
            answer = self.finish(&mut stack, own);
        }
        answer
    }

    /// Parks the top frame until `node`, pushed above it, is resolved.
    fn wait(&mut self, stack: &mut Vec<Frame>, waits: Wait, node: usize) {
        stack.last_mut().expect("a frame to park").waits = waits;
        stack.push(Frame {
            node,
            waits: Wait::Start,
        });
    }

    /// Records the top frame's outcome and pops it.
    fn finish(&mut self, stack: &mut Vec<Frame>, outcome: Outcome) -> Outcome {
        let frame = stack.pop().expect("a frame to finish");
        self.marks[frame.node] = 2 * self.generation + 1;
        self.outcomes[frame.node] = outcome;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_automata::Lr0Automaton;
    use lalr_core::LalrAnalysis;
    use lalr_corpus::synthetic::{random, RandomConfig};
    use lalr_tables::{build_table, TableOptions};

    fn table_of(g: &Grammar) -> ParseTable {
        let lr0 = Lr0Automaton::build(g);
        let la = LalrAnalysis::compute(g, &lr0).into_lookaheads();
        build_table(g, &lr0, &la, TableOptions::default())
    }

    #[test]
    fn corpus_tables_are_searched_clear() {
        for entry in lalr_corpus::all_entries() {
            let grammar = entry.grammar();
            let table = table_of(&grammar);
            assert_eq!(find_loop(&table), None, "{}", entry.name);
            // Only the grammar whose nullable rules form a cycle gets past
            // the grammar's rules.
            let past = may_reduce_forever(&grammar, &table);
            assert_eq!(past, entry.name == "reads_cycle", "{}", entry.name);
        }
    }

    #[test]
    fn the_grammar_never_clears_a_table_the_search_names() {
        let mut named = 0;
        for seed in 0..400u64 {
            let config = RandomConfig {
                nonterminals: 2 + (seed % 5) as usize,
                terminals: 2 + (seed % 3) as usize,
                productions: 4 + (seed % 9) as usize,
                max_rhs: 3,
                epsilon_prob: 0.3,
            };
            let grammar = random(seed, config);
            let table = table_of(&grammar);
            if find_loop(&table).is_some() {
                named += 1;
                assert!(may_reduce_forever(&grammar, &table), "seed {seed}");
            }
        }
        assert!(named > 10, "{named} tables named");
    }
}
