//! The shift-reduce driver.

use std::iter::Peekable;

use lalr_tables::{Action, CompressedTable, ParseTable, ProductionInfo};

use crate::error::ParseError;
use crate::token::Token;
use crate::tree::ParseTree;

/// What the driver needs from a table — implemented by the dense
/// [`ParseTable`] and by [`CompressedSource`] (compressed actions, dense
/// gotos), so both run through the same loop and can be differential-tested.
pub trait ActionSource {
    /// `ACTION[state][terminal]`.
    fn action(&self, state: u32, terminal: u32) -> Action;
    /// `GOTO[state][nonterminal]`.
    fn goto(&self, state: u32, nonterminal: u32) -> Option<u32>;
    /// Production metadata.
    fn production(&self, prod: u32) -> &ProductionInfo;
    /// Terminals expected in `state` (for error messages).
    fn expected(&self, state: u32) -> Vec<String>;
}

impl ActionSource for ParseTable {
    fn action(&self, state: u32, terminal: u32) -> Action {
        ParseTable::action(self, state, terminal)
    }

    fn goto(&self, state: u32, nonterminal: u32) -> Option<u32> {
        ParseTable::goto(self, state, nonterminal)
    }

    fn production(&self, prod: u32) -> &ProductionInfo {
        ParseTable::production(self, prod)
    }

    fn expected(&self, state: u32) -> Vec<String> {
        self.expected_terminals(state)
            .into_iter()
            .map(|t| self.terminal_name(t).to_string())
            .collect()
    }
}

/// A compressed action table paired with the dense table it came from
/// (for GOTO, metadata and names).
#[derive(Debug, Clone)]
pub struct CompressedSource<'a> {
    compressed: &'a CompressedTable,
    dense: &'a ParseTable,
}

impl<'a> CompressedSource<'a> {
    /// Pairs a compressed table with its dense origin.
    pub fn new(compressed: &'a CompressedTable, dense: &'a ParseTable) -> Self {
        CompressedSource { compressed, dense }
    }
}

impl ActionSource for CompressedSource<'_> {
    fn action(&self, state: u32, terminal: u32) -> Action {
        self.compressed.action(state, terminal)
    }

    fn goto(&self, state: u32, nonterminal: u32) -> Option<u32> {
        self.dense.goto(state, nonterminal)
    }

    fn production(&self, prod: u32) -> &ProductionInfo {
        self.dense.production(prod)
    }

    fn expected(&self, state: u32) -> Vec<String> {
        self.dense.expected(state)
    }
}

/// The LR driver.
///
/// [`parse`](Self::parse), [`parse_with_recovery`](Self::parse_with_recovery)
/// and [`parse_with_error_token`](Self::parse_with_error_token) run one
/// shift/reduce step onto one [`ParseTree`] forest; they differ only in
/// what they do when that step meets an error.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug, Clone)]
pub struct Parser<'t, S: ActionSource = ParseTable> {
    table: &'t S,
}

/// What one shift/reduce step did.
enum Step {
    Shifted,
    Reduced,
    Accepted,
    /// A syntax error in this state on the look-ahead, which recovery
    /// may repair. Accept with input left is one too: a token whose
    /// terminal is the end marker `$` does not end the document early.
    Blocked(u32),
    /// The parse cannot go on from this state: a reduction with no goto
    /// (a compressed table's default reduction on an erroneous
    /// look-ahead), or more leaves or nodes than a tree's `u32` ids name.
    Failed(u32),
}

/// One parse in progress: the LR stack, the forest built so far and the
/// unread input.
struct Run<'p, 'a, S, I: Iterator<Item = Token<'a>>> {
    table: &'p S,
    /// `(state, child id)` pairs: each state with the subtree shifted or
    /// reduced into it. The bottom entry is the start state, whose id is
    /// unused.
    stack: Vec<(u32, u32)>,
    tree: ParseTree<'a>,
    input: Peekable<I>,
    /// Where an end-of-input error points: the last consumed token's
    /// offset plus its text's length.
    end: usize,
}

impl<'p, 'a, S: ActionSource, I: Iterator<Item = Token<'a>>> Run<'p, 'a, S, I> {
    fn new(table: &'p S, input: I) -> Self {
        let mut stack = Vec::with_capacity(64);
        stack.push((0, 0));
        Run {
            table,
            stack,
            tree: ParseTree::with_capacity(input.size_hint().0),
            input: input.peekable(),
            end: 0,
        }
    }

    /// The shift/reduce step every driver runs.
    fn step(&mut self) -> Step {
        let (state, _) = *self.stack.last().expect("stack never empties");
        let terminal = self.input.peek().map_or(0, Token::terminal); // $ is terminal 0
        match self.table.action(state, terminal) {
            Action::Shift(next) => {
                let Some(id) = self.tree.next_leaf_id() else {
                    return Step::Failed(state);
                };
                let tok = self.input.next().expect("shift only on real tokens");
                self.end = tok.offset() + tok.text().len();
                self.tree.push_leaf(tok);
                self.stack.push((next, id));
                Step::Shifted
            }
            Action::Reduce(prod) => {
                let info = self.table.production(prod);
                let base = self
                    .stack
                    .len()
                    .checked_sub(info.rhs_len as usize)
                    .filter(|&base| base > 0)
                    .expect("a reduction pops only what was pushed");
                let (top, _) = self.stack[base - 1];
                let Some(next) = self.table.goto(top, info.lhs) else {
                    return Step::Failed(top);
                };
                let children = self.stack[base..].iter().map(|&(_, id)| id);
                let Some(id) = self.tree.push_node(info.lhs, prod, children) else {
                    return Step::Failed(top);
                };
                self.stack.truncate(base);
                self.stack.push((next, id));
                Step::Reduced
            }
            Action::Accept if self.input.peek().is_none() => Step::Accepted,
            Action::Accept | Action::Error => Step::Blocked(state),
        }
    }

    /// The diagnostic for an error in `state` on the current look-ahead.
    fn error(&mut self, state: u32) -> ParseError {
        let found = self.input.peek().map(|t| t.clone().into_owned());
        let offset = found.as_ref().map_or(self.end, Token::offset);
        ParseError {
            state,
            found,
            expected: self.table.expected(state),
            offset,
        }
    }

    /// Discards the look-ahead; `false` at end of input.
    fn skip(&mut self) -> bool {
        let Some(tok) = self.input.next() else {
            return false;
        };
        self.end = tok.offset() + tok.text().len();
        true
    }

    /// The tree, rooted at the subtree on top of the stack.
    fn finish(mut self) -> ParseTree<'a> {
        let (_, root) = self.stack[1..]
            .last()
            .copied()
            .expect("accept implies a full tree");
        self.tree.set_root(root);
        self.tree
    }
}

impl<'t, S: ActionSource> Parser<'t, S> {
    /// Creates a driver over `table`.
    pub fn new(table: &'t S) -> Self {
        Parser { table }
    }

    /// Parses a token stream to a tree.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseError`]; the input is not consumed past it.
    /// Any token whose terminal is the end marker `$` (index 0) is an
    /// error at that token, the last one included: no state shifts `$`,
    /// and the end of input is where the tokens run out. A document that
    /// needs `2^31` or more leaves or reductions is refused at the first
    /// one that does not fit a tree's `u32` ids.
    pub fn parse<'a, I>(&self, tokens: I) -> Result<ParseTree<'a>, ParseError>
    where
        I: IntoIterator<Item = Token<'a>>,
    {
        let mut run = Run::new(self.table, tokens.into_iter());
        loop {
            match run.step() {
                Step::Shifted | Step::Reduced => {}
                Step::Accepted => return Ok(run.finish()),
                Step::Blocked(state) | Step::Failed(state) => return Err(run.error(state)),
            }
        }
    }

    /// Parses with **yacc-style `error`-token recovery**: the grammar may
    /// use an ordinary terminal (conventionally named `error`) inside
    /// productions like `stmt : error ";"`. On a syntax error the driver
    ///
    /// 1. pops states until one can shift `error_terminal`,
    /// 2. shifts a synthetic `error` token,
    /// 3. discards input until a token has an action in the new state,
    /// 4. resumes, suppressing cascaded reports until three tokens have
    ///    been shifted cleanly (yacc's hysteresis).
    ///
    /// An error before any token has been shifted since the last recovery
    /// discards the offending token instead (at end of input, recovery
    /// fails), so every recovery consumes input and the parse terminates.
    ///
    /// Returns the tree (with `error` leaves where recovery happened) plus
    /// the diagnostics; `None` when recovery failed outright.
    pub fn parse_with_error_token<'a, I>(
        &self,
        tokens: I,
        error_terminal: u32,
        max_errors: usize,
    ) -> (Option<ParseTree<'a>>, Vec<ParseError>)
    where
        I: IntoIterator<Item = Token<'a>>,
    {
        let mut errors = Vec::new();
        let mut run = Run::new(self.table, tokens.into_iter());
        let mut clean_shifts = 3usize; // suppression counter
        loop {
            let state = match run.step() {
                Step::Shifted => {
                    clean_shifts += 1;
                    continue;
                }
                Step::Reduced => continue,
                Step::Accepted => return (Some(run.finish()), errors),
                Step::Failed(state) => {
                    errors.push(run.error(state));
                    return (None, errors);
                }
                Step::Blocked(state) => state,
            };
            if clean_shifts == 0 {
                // Nothing shifted since the last recovery: popping to
                // `error` again would re-shift it in place forever. Drop
                // the look-ahead instead (byacc's rule), or give up at
                // end of input.
                if !run.skip() {
                    return (None, errors);
                }
                continue;
            }
            if clean_shifts >= 3 {
                errors.push(run.error(state));
            }
            if errors.len() >= max_errors {
                return (None, errors);
            }
            clean_shifts = 0;
            // 1. Pop until `error` shifts.
            let resume = loop {
                let Some(&(s, _)) = run.stack.last() else {
                    return (None, errors);
                };
                if let Action::Shift(next) = self.table.action(s, error_terminal) {
                    break next;
                }
                run.stack.pop();
            };
            // 2. Shift the synthetic error token.
            let Some(id) = run.tree.next_leaf_id() else {
                errors.push(run.error(resume));
                return (None, errors);
            };
            let offset = run.input.peek().map_or(usize::MAX, Token::offset);
            run.tree
                .push_leaf(Token::new(error_terminal, "<error>", offset));
            run.stack.push((resume, id));
            // 3. Discard input until a token is actionable here; at end
            // of input, `$` drives the reductions or accept.
            while run
                .input
                .peek()
                .is_some_and(|t| self.table.action(resume, t.terminal()).is_error())
            {
                run.skip();
            }
        }
    }

    /// Parses with panic-mode recovery: on error, states are popped until
    /// one can shift a `sync` terminal, input is skipped up to the next
    /// sync token, and parsing resumes. Collects up to `max_errors`
    /// diagnostics.
    ///
    /// Returns the diagnostics; the tree is only returned when the input
    /// parsed without errors.
    pub fn parse_with_recovery<'a, I>(
        &self,
        tokens: I,
        sync: &[u32],
        max_errors: usize,
    ) -> (Option<ParseTree<'a>>, Vec<ParseError>)
    where
        I: IntoIterator<Item = Token<'a>>,
    {
        let mut errors = Vec::new();
        let mut run = Run::new(self.table, tokens.into_iter());
        loop {
            let state = match run.step() {
                Step::Shifted | Step::Reduced => continue,
                Step::Accepted => {
                    let ok = errors.is_empty();
                    return (ok.then(|| run.finish()), errors);
                }
                Step::Failed(state) => {
                    errors.push(run.error(state));
                    return (None, errors);
                }
                Step::Blocked(state) => state,
            };
            errors.push(run.error(state));
            if errors.len() >= max_errors {
                return (None, errors);
            }
            // Panic mode: pop states until one shifts a sync token, then
            // skip input up to a sync token.
            let mut recovered = false;
            while let Some(&(s, _)) = run.stack.last() {
                if sync.iter().any(|&t| self.table.action(s, t).is_shift()) {
                    while let Some(t) = run.input.peek() {
                        if sync.contains(&t.terminal()) {
                            recovered = true;
                            break;
                        }
                        run.skip();
                    }
                    break;
                }
                run.stack.pop();
            }
            if !recovered {
                return (None, errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexer;
    use lalr_automata::Lr0Automaton;
    use lalr_core::LalrAnalysis;
    use lalr_grammar::parse_grammar;
    use lalr_tables::{build_table, TableOptions};

    fn table(src: &str) -> ParseTable {
        let g = parse_grammar(src).unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        build_table(&g, &lr0, &la, TableOptions::default())
    }

    const EXPR: &str = "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | NUM ;";

    #[test]
    fn parses_expression() {
        let t = table(EXPR);
        let lx = Lexer::for_table(&t).number("NUM").build();
        let toks = lx.tokenize("1 + 2 * (3 + 4)").unwrap();
        let tree = Parser::new(&t).parse(toks).unwrap();
        assert_eq!(tree.leaf_count(), 9);
        // Leaves round-trip in order.
        let texts: Vec<&str> = tree.leaves().iter().map(|x| x.text()).collect();
        assert_eq!(texts, vec!["1", "+", "2", "*", "(", "3", "+", "4", ")"]);
    }

    #[test]
    fn precedence_shape_left_assoc() {
        // 1+2*3 must parse as 1+(2*3) in the stratified grammar.
        let t = table(EXPR);
        let lx = Lexer::for_table(&t).number("NUM").build();
        let tree = Parser::new(&t)
            .parse(lx.tokenize("1 + 2 * 3").unwrap())
            .unwrap();
        let sexpr = tree.to_sexpr(&t);
        assert_eq!(sexpr, "(e (e (t (f 1))) + (t (t (f 2)) * (f 3)))");
    }

    #[test]
    fn syntax_error_reports_expected() {
        let t = table(EXPR);
        let lx = Lexer::for_table(&t).number("NUM").build();
        let err = Parser::new(&t)
            .parse(lx.tokenize("1 + + 2").unwrap())
            .unwrap_err();
        assert_eq!(err.found.as_ref().unwrap().text(), "+");
        assert!(err.expected.contains(&"NUM".to_string()));
        assert!(err.expected.contains(&"(".to_string()));
    }

    #[test]
    fn error_at_eof() {
        let t = table(EXPR);
        let lx = Lexer::for_table(&t).number("NUM").build();
        let err = Parser::new(&t)
            .parse(lx.tokenize("1 +").unwrap())
            .unwrap_err();
        assert!(err.found.is_none());
        // The error still has a position: one past the "+" token.
        assert_eq!(err.offset, 3);
    }

    #[test]
    fn an_end_marker_token_does_not_end_the_input_early() {
        // Terminal 0 is `$`; a hand-built `$` token, followed by more input
        // or last, is an error at that token, not an accept that drops
        // the rest.
        let t = table(EXPR);
        let num = t.terminal_by_name("NUM").unwrap();
        let toks = vec![
            Token::new(num, "NUM", 0),
            Token::new(0, "$", 1),
            Token::new(num, "NUM", 2),
        ];
        let err = Parser::new(&t).parse(toks.clone()).unwrap_err();
        assert_eq!(err.found.as_ref().map(|t| t.text()), Some("$"));
        assert_eq!(err.offset, 1);
        let (tree, errors) = Parser::new(&t).parse_with_recovery(toks.clone(), &[num], 8);
        assert!(tree.is_none());
        assert_eq!(errors[0], err);
        let (_, errors) = Parser::new(&t).parse_with_error_token(toks.clone(), num, 8);
        assert_eq!(errors[0], err);
        let trailing = toks[..2].to_vec();
        assert_eq!(Parser::new(&t).parse(trailing).unwrap_err(), err);
    }

    #[test]
    fn empty_input_parses_nullable_start() {
        let t = table("s : \"a\" s | ;");
        let tree = Parser::new(&t).parse(Vec::new()).unwrap();
        assert_eq!(tree.leaf_count(), 0);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn compressed_source_parses_identically() {
        let t = table(EXPR);
        let c = lalr_tables::CompressedTable::from_dense(&t);
        let src = CompressedSource::new(&c, &t);
        let lx = Lexer::for_table(&t).number("NUM").build();
        for input in ["1", "1 + 2", "(1 + 2) * 3 + 4"] {
            let toks = lx.tokenize(input).unwrap();
            let a = Parser::new(&t).parse(toks.clone()).unwrap();
            let b = Parser::new(&src).parse(toks).unwrap();
            assert_eq!(a, b, "{input}");
        }
    }

    #[test]
    fn compressed_source_rejects_identically() {
        let t = table(EXPR);
        let c = lalr_tables::CompressedTable::from_dense(&t);
        let src = CompressedSource::new(&c, &t);
        let lx = Lexer::for_table(&t).number("NUM").build();
        for input in ["", "+", "1 +", "( 1", "1 2"] {
            let toks = lx.tokenize(input).unwrap();
            assert_eq!(
                Parser::new(&t).parse(toks.clone()).is_err(),
                Parser::new(&src).parse(toks).is_err(),
                "{input}"
            );
        }
    }

    #[test]
    fn error_token_recovery_repairs_statements() {
        // stmt : ID "=" NUM | error — the yacc pattern.
        let t = table("stmts : stmt | stmts \";\" stmt ; stmt : ID \"=\" NUM | error ;");
        let lx = Lexer::for_table(&t).number("NUM").identifier("ID").build();
        let err_t = t.terminal_by_name("error").unwrap();
        // Note: the lexer treats `error` as a keyword; inputs avoid it.
        let toks = lx.tokenize("a = 1 ; b = = 2 ; c = 3").unwrap();
        let (tree, errors) = Parser::new(&t).parse_with_error_token(toks, err_t, 10);
        assert_eq!(errors.len(), 1, "{errors:?}");
        let tree = tree.expect("recovered to a full tree");
        // The middle statement became an error node; the other two parse.
        let sexpr = tree.to_sexpr(&t);
        assert!(sexpr.contains("<error>"), "{sexpr}");
        assert!(
            sexpr.contains("a = 1") && sexpr.contains("c = 3"),
            "{sexpr}"
        );
    }

    #[test]
    fn error_token_recovery_reports_each_bad_statement_once() {
        let t = table("stmts : stmt | stmts \";\" stmt ; stmt : ID \"=\" NUM | error ;");
        let lx = Lexer::for_table(&t).number("NUM").identifier("ID").build();
        let err_t = t.terminal_by_name("error").unwrap();
        let toks = lx.tokenize("= ; b = = 2 ; = = ; d = 4").unwrap();
        let (tree, errors) = Parser::new(&t).parse_with_error_token(toks, err_t, 10);
        assert!(tree.is_some());
        assert!(
            (2..=3).contains(&errors.len()),
            "three bad statements, hysteresis may merge adjacent: {errors:?}"
        );
    }

    #[test]
    fn error_token_clean_input_is_untouched() {
        let t = table("stmts : stmt | stmts \";\" stmt ; stmt : ID \"=\" NUM | error ;");
        let lx = Lexer::for_table(&t).number("NUM").identifier("ID").build();
        let err_t = t.terminal_by_name("error").unwrap();
        let toks = lx.tokenize("a = 1 ; b = 2").unwrap();
        let (tree, errors) = Parser::new(&t).parse_with_error_token(toks.clone(), err_t, 10);
        assert!(errors.is_empty());
        assert_eq!(tree.unwrap(), Parser::new(&t).parse(toks).unwrap());
    }

    #[test]
    fn recovery_collects_multiple_errors() {
        // Statement list with ";" as the sync token.
        let t = table("list : stmt | list \";\" stmt ; stmt : ID \"=\" NUM | ;");
        let lx = Lexer::for_table(&t).number("NUM").identifier("ID").build();
        let semi = t.terminal_by_name(";").unwrap();
        let toks = lx.tokenize("a = 1 ; b = = 2 ; c = 3 ; d d d").unwrap();
        let (tree, errors) = Parser::new(&t).parse_with_recovery(toks, &[semi], 10);
        assert!(tree.is_none());
        assert!(errors.len() >= 2, "two corrupt statements: {errors:?}");
    }

    #[test]
    fn recovery_clean_input_returns_tree() {
        let t = table("list : stmt | list \";\" stmt ; stmt : ID \"=\" NUM ;");
        let lx = Lexer::for_table(&t).number("NUM").identifier("ID").build();
        let semi = t.terminal_by_name(";").unwrap();
        let toks = lx.tokenize("a = 1 ; b = 2").unwrap();
        let (tree, errors) = Parser::new(&t).parse_with_recovery(toks, &[semi], 10);
        assert!(errors.is_empty());
        assert_eq!(tree.unwrap().leaf_count(), 7);
    }
}
