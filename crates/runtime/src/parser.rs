//! The shift-reduce driver.

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
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug, Clone)]
pub struct Parser<'t, S: ActionSource = ParseTable> {
    table: &'t S,
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
    pub fn parse<I>(&self, tokens: I) -> Result<ParseTree, ParseError>
    where
        I: IntoIterator<Item = Token>,
    {
        let mut states: Vec<u32> = vec![0];
        let mut forest: Vec<ParseTree> = Vec::new();
        let mut input = tokens.into_iter().peekable();
        let mut end = 0usize; // one past the last consumed token

        loop {
            let state = *states.last().expect("stack never empties");
            let terminal = input.peek().map_or(0, Token::terminal); // $ is terminal 0
            match self.table.action(state, terminal) {
                Action::Shift(next) => {
                    let tok = input.next().expect("shift only on real tokens");
                    end = tok.offset() + tok.text().len();
                    forest.push(ParseTree::Leaf(tok));
                    states.push(next);
                }
                Action::Reduce(prod) => {
                    let info = self.table.production(prod);
                    let n = info.rhs_len as usize;
                    let children = forest.split_off(forest.len() - n);
                    for _ in 0..n {
                        states.pop();
                    }
                    let top = *states.last().expect("stack never empties");
                    let Some(next) = self.table.goto(top, info.lhs) else {
                        // Reachable only via a compressed table's default
                        // reduce on an erroneous look-ahead.
                        return Err(self.error(top, input.peek().cloned(), end));
                    };
                    forest.push(ParseTree::Node {
                        nonterminal: info.lhs,
                        production: prod,
                        children,
                    });
                    states.push(next);
                }
                Action::Accept => {
                    let tree = forest.pop().expect("accept implies a full tree");
                    return Ok(tree);
                }
                Action::Error => {
                    return Err(self.error(state, input.peek().cloned(), end));
                }
            }
        }
    }

    fn error(&self, state: u32, found: Option<Token>, end: usize) -> ParseError {
        let offset = found.as_ref().map_or(end, Token::offset);
        ParseError {
            state,
            found,
            expected: self.table.expected(state),
            offset,
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
    pub fn parse_with_error_token<I>(
        &self,
        tokens: I,
        error_terminal: u32,
        max_errors: usize,
    ) -> (Option<ParseTree>, Vec<ParseError>)
    where
        I: IntoIterator<Item = Token>,
    {
        let mut errors = Vec::new();
        let mut states: Vec<u32> = vec![0];
        let mut forest: Vec<ParseTree> = Vec::new();
        let mut input = tokens.into_iter().peekable();
        let mut clean_shifts = 3usize; // suppression counter
        let mut end = 0usize;

        loop {
            let state = *states.last().expect("stack never empties");
            let terminal = input.peek().map_or(0, Token::terminal);
            match self.table.action(state, terminal) {
                Action::Shift(next) => {
                    let tok = input.next().expect("shift only on real tokens");
                    end = tok.offset() + tok.text().len();
                    forest.push(ParseTree::Leaf(tok));
                    states.push(next);
                    clean_shifts += 1;
                }
                Action::Reduce(prod) => {
                    let info = self.table.production(prod);
                    let n = info.rhs_len as usize;
                    let children = forest.split_off(forest.len() - n);
                    states.truncate(states.len() - n);
                    let top = *states.last().expect("stack never empties");
                    match self.table.goto(top, info.lhs) {
                        Some(next) => {
                            forest.push(ParseTree::Node {
                                nonterminal: info.lhs,
                                production: prod,
                                children,
                            });
                            states.push(next);
                        }
                        None => {
                            errors.push(self.error(top, input.peek().cloned(), end));
                            return (None, errors);
                        }
                    }
                }
                Action::Accept => {
                    let tree = forest.pop().expect("accept implies a full tree");
                    return (Some(tree), errors);
                }
                Action::Error => {
                    if clean_shifts == 0 {
                        // Nothing shifted since the last recovery: popping
                        // to `error` again would re-shift it in place
                        // forever. Drop the look-ahead instead (byacc's
                        // rule), or give up at end of input.
                        let Some(skipped) = input.next() else {
                            return (None, errors);
                        };
                        end = skipped.offset() + skipped.text().len();
                        continue;
                    }
                    if clean_shifts >= 3 {
                        errors.push(self.error(state, input.peek().cloned(), end));
                    }
                    if errors.len() >= max_errors {
                        return (None, errors);
                    }
                    clean_shifts = 0;
                    // 1. Pop until `error` shifts.
                    loop {
                        let Some(&s) = states.last() else {
                            return (None, errors);
                        };
                        if let Action::Shift(next) = self.table.action(s, error_terminal) {
                            // 2. Shift the synthetic error token.
                            let offset = input.peek().map(Token::offset).unwrap_or(usize::MAX);
                            forest.push(ParseTree::Leaf(Token::new(
                                error_terminal,
                                "<error>",
                                offset,
                            )));
                            states.push(next);
                            break;
                        }
                        states.pop();
                        forest.pop();
                    }
                    // 3. Discard input until a token is actionable here.
                    let s = *states.last().expect("just pushed");
                    loop {
                        match input.peek() {
                            None => break, // let $ drive reductions/accept
                            Some(t) if !self.table.action(s, t.terminal()).is_error() => {
                                break;
                            }
                            Some(_) => {
                                let skipped = input.next().expect("peeked");
                                end = skipped.offset() + skipped.text().len();
                            }
                        }
                    }
                }
            }
        }
    }

    /// Parses with panic-mode recovery: on error, states are popped until
    /// one can shift a `sync` terminal, input is skipped up to and
    /// including the next sync token, and parsing resumes. Collects up to
    /// `max_errors` diagnostics.
    ///
    /// Returns the diagnostics; the tree is only returned when the input
    /// parsed without errors.
    pub fn parse_with_recovery<I>(
        &self,
        tokens: I,
        sync: &[u32],
        max_errors: usize,
    ) -> (Option<ParseTree>, Vec<ParseError>)
    where
        I: IntoIterator<Item = Token>,
    {
        let mut errors = Vec::new();
        let mut states: Vec<u32> = vec![0];
        let mut forest: Vec<ParseTree> = Vec::new();
        let mut input = tokens.into_iter().peekable();
        let mut end = 0usize;

        loop {
            let state = *states.last().expect("stack never empties");
            let terminal = input.peek().map_or(0, Token::terminal);
            match self.table.action(state, terminal) {
                Action::Shift(next) => {
                    let tok = input.next().expect("shift only on real tokens");
                    end = tok.offset() + tok.text().len();
                    forest.push(ParseTree::Leaf(tok));
                    states.push(next);
                }
                Action::Reduce(prod) => {
                    let info = self.table.production(prod);
                    let n = info.rhs_len as usize;
                    let children = forest.split_off(forest.len() - n);
                    states.truncate(states.len() - n);
                    let top = *states.last().expect("stack never empties");
                    match self.table.goto(top, info.lhs) {
                        Some(next) => {
                            forest.push(ParseTree::Node {
                                nonterminal: info.lhs,
                                production: prod,
                                children,
                            });
                            states.push(next);
                        }
                        None => {
                            errors.push(self.error(top, input.peek().cloned(), end));
                            return (None, errors);
                        }
                    }
                }
                Action::Accept => {
                    let tree = forest.pop().expect("accept implies a full tree");
                    let ok = errors.is_empty();
                    return (ok.then_some(tree), errors);
                }
                Action::Error => {
                    errors.push(self.error(state, input.peek().cloned(), end));
                    if errors.len() >= max_errors {
                        return (None, errors);
                    }
                    // Panic mode: pop states until one shifts a sync token…
                    let mut recovered = false;
                    'recover: while !states.is_empty() {
                        let s = *states.last().expect("checked non-empty");
                        for &sync_t in sync {
                            if self.table.action(s, sync_t).is_shift() {
                                // …then skip input up to a sync token.
                                while let Some(t) = input.peek() {
                                    if sync.contains(&t.terminal()) {
                                        recovered = true;
                                        break 'recover;
                                    }
                                    let skipped = input.next().expect("peeked");
                                    end = skipped.offset() + skipped.text().len();
                                }
                                break 'recover;
                            }
                        }
                        states.pop();
                        forest.pop();
                    }
                    if !recovered || states.is_empty() {
                        return (None, errors);
                    }
                }
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
