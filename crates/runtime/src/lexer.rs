//! A small configurable lexer driven by the parse table's terminal names.

use std::collections::HashMap;

use lalr_tables::ParseTable;

use crate::error::LexError;
use crate::token::Token;

/// Maps each terminal name of `table` to its index, for documents written
/// as whitespace-separated terminal names. The end marker `$` (index 0)
/// is left out, as in [`Lexer::for_table`]: a document cannot end itself
/// early. A name declared twice maps to its first index, as in
/// [`ParseTable::terminal_by_name`].
///
/// The names come from grammar text, so the map keeps the default
/// (collision-resistant) hasher.
pub fn terminal_index(table: &ParseTable) -> HashMap<&str, u32> {
    let mut index = HashMap::with_capacity(table.terminal_count() as usize);
    for t in 1..table.terminal_count() {
        index.entry(table.terminal_name(t)).or_insert(t);
    }
    index
}

/// Builder for [`Lexer`]; see [`Lexer::for_table`].
#[derive(Debug, Clone)]
pub struct LexerBuilder {
    literals: Vec<(String, u32)>,
    keywords: HashMap<String, u32>,
    number: Option<u32>,
    identifier: Option<u32>,
    string: Option<u32>,
}

impl LexerBuilder {
    /// Route integer/decimal literals to the terminal named `name` (e.g.
    /// `"NUM"`). Without this, digits are lex errors.
    pub fn number(mut self, name: &str) -> Self {
        self.number = self.take(name);
        self
    }

    /// Route non-keyword identifiers to the terminal named `name`.
    pub fn identifier(mut self, name: &str) -> Self {
        self.identifier = self.take(name);
        self
    }

    /// Route double-quoted string literals to the terminal named `name`.
    pub fn string(mut self, name: &str) -> Self {
        self.string = self.take(name);
        self
    }

    /// Removes `name` from the keyword/literal tables and returns its index.
    fn take(&mut self, name: &str) -> Option<u32> {
        let id = self.keywords.remove(name).or_else(|| {
            self.literals
                .iter()
                .position(|(l, _)| l == name)
                .map(|i| self.literals.remove(i).1)
        });
        id
    }

    /// Finishes the lexer.
    pub fn build(mut self) -> Lexer {
        // Longest-first so that ":=" beats ":".
        self.literals
            .sort_by_key(|(lit, _)| std::cmp::Reverse(lit.len()));
        Lexer {
            literals: self.literals,
            keywords: self.keywords,
            number: self.number,
            identifier: self.identifier,
            string: self.string,
        }
    }
}

/// A whitespace-skipping longest-match lexer.
///
/// Terminal names from the table are split into *keywords* (names that look
/// like identifiers: `while`, `BEGIN`) matched against whole identifier
/// lexemes, and *literals* (everything else: `+`, `:=`, `(`) matched
/// verbatim, longest first. Classes for numbers, identifiers and strings
/// are attached through the builder.
///
/// # Examples
///
/// ```
/// # use lalr_automata::Lr0Automaton;
/// # use lalr_core::LalrAnalysis;
/// # use lalr_grammar::parse_grammar;
/// # use lalr_runtime::Lexer;
/// # use lalr_tables::{build_table, TableOptions};
/// let g = parse_grammar("s : WHILE ID DO ID ASSIGN NUM \";\" ;")?;
/// # let lr0 = Lr0Automaton::build(&g);
/// # let la = LalrAnalysis::compute(&g, &lr0).into_lookaheads();
/// # let table = build_table(&g, &lr0, &la, TableOptions::default());
/// let lexer = Lexer::for_table(&table)
///     .number("NUM")
///     .identifier("ID")
///     .build();
/// let toks = lexer.tokenize("WHILE x DO y ASSIGN 42 ;")?;
/// assert_eq!(toks.len(), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lexer {
    literals: Vec<(String, u32)>,
    keywords: HashMap<String, u32>,
    number: Option<u32>,
    identifier: Option<u32>,
    string: Option<u32>,
}

impl Lexer {
    /// Starts a builder whose keyword/literal tables come from `table`'s
    /// terminal names (skipping the reserved `$`).
    pub fn for_table(table: &ParseTable) -> LexerBuilder {
        let mut literals = Vec::new();
        let mut keywords = HashMap::new();
        for t in 1..table.terminal_count() {
            let name = table.terminal_name(t).to_string();
            let is_ident = name.chars().all(|c| c.is_alphanumeric() || c == '_')
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_');
            if is_ident {
                keywords.insert(name, t);
            } else {
                literals.push((name, t));
            }
        }
        LexerBuilder {
            literals,
            keywords,
            number: None,
            identifier: None,
            string: None,
        }
    }

    /// Tokenizes `input`, skipping ASCII whitespace. Every token's text
    /// is borrowed from `input`.
    ///
    /// # Errors
    ///
    /// Returns [`LexError`] at the first character no rule matches.
    pub fn tokenize<'a>(&self, input: &'a str) -> Result<Vec<Token<'a>>, LexError> {
        let bytes = input.as_bytes();
        let mut out = Vec::new();
        let mut pos = 0usize;
        'outer: while pos < bytes.len() {
            let b = bytes[pos];
            if b.is_ascii_whitespace() {
                pos += 1;
                continue;
            }
            // Identifier / keyword.
            if b.is_ascii_alphabetic() || b == b'_' {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let text = &input[start..pos];
                match self.keywords.get(text) {
                    Some(&t) => out.push(Token::new(t, text, start)),
                    None => match self.identifier {
                        Some(t) => out.push(Token::new(t, text, start)),
                        None => {
                            return Err(LexError {
                                ch: text.chars().next().expect("nonempty"),
                                offset: start,
                            })
                        }
                    },
                }
                continue;
            }
            // Number.
            if b.is_ascii_digit() {
                let start = pos;
                while pos < bytes.len() && (bytes[pos].is_ascii_digit() || bytes[pos] == b'.') {
                    pos += 1;
                }
                match self.number {
                    Some(t) => out.push(Token::new(t, &input[start..pos], start)),
                    None => {
                        return Err(LexError {
                            ch: b as char,
                            offset: start,
                        })
                    }
                }
                continue;
            }
            // String literal.
            if b == b'"' {
                if let Some(t) = self.string {
                    let start = pos;
                    pos += 1;
                    while pos < bytes.len() && bytes[pos] != b'"' {
                        pos += 1;
                    }
                    if pos < bytes.len() {
                        pos += 1; // closing quote
                        out.push(Token::new(t, &input[start..pos], start));
                        continue;
                    }
                    return Err(LexError {
                        ch: '"',
                        offset: start,
                    });
                }
            }
            // Punctuation literals, longest first.
            for (lit, t) in &self.literals {
                if input[pos..].starts_with(lit.as_str()) {
                    let end = pos + lit.len();
                    out.push(Token::new(*t, &input[pos..end], pos));
                    pos = end;
                    continue 'outer;
                }
            }
            return Err(LexError {
                ch: input[pos..].chars().next().expect("nonempty"),
                offset: pos,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn longest_literal_wins() {
        let t = table("s : ID ASSIGN1 ;  // dummy\n");
        let _ = t;
        let t = table("s : \":=\" | \":\" ;");
        let lx = Lexer::for_table(&t).build();
        let toks = lx.tokenize(":=").unwrap();
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text(), ":=");
    }

    #[test]
    fn token_text_is_borrowed_from_the_input() {
        let t = table("s : WHILE ID \":=\" NUM ;");
        let lx = Lexer::for_table(&t).identifier("ID").number("NUM").build();
        let input = "WHILE x := 42";
        for tok in lx.tokenize(input).unwrap() {
            let text = tok.text();
            assert_eq!(text.as_ptr(), input[tok.offset()..].as_ptr(), "{tok}");
        }
    }

    #[test]
    fn terminal_index_skips_the_end_marker() {
        let t = table("s : NUM \"+\" NUM ;");
        let index = terminal_index(&t);
        assert_eq!(t.terminal_name(0), "$");
        assert_eq!(index.get("$"), None);
        assert_eq!(index.get("NUM").copied(), t.terminal_by_name("NUM"));
        assert_eq!(index.get("+").copied(), t.terminal_by_name("+"));
        assert_eq!(index.len() as u32, t.terminal_count() - 1);
    }

    #[test]
    fn keywords_beat_identifiers() {
        let t = table("s : WHILE ID ;");
        let lx = Lexer::for_table(&t).identifier("ID").build();
        let toks = lx.tokenize("WHILE WHILEx").unwrap();
        assert_eq!(toks[0].terminal(), t.terminal_by_name("WHILE").unwrap());
        assert_eq!(toks[1].terminal(), t.terminal_by_name("ID").unwrap());
    }

    #[test]
    fn numbers_and_strings() {
        let t = table("s : NUM STR ;");
        let lx = Lexer::for_table(&t).number("NUM").string("STR").build();
        let toks = lx.tokenize("3.14 \"hi there\"").unwrap();
        assert_eq!(toks[0].text(), "3.14");
        assert_eq!(toks[1].text(), "\"hi there\"");
        assert_eq!(toks[1].offset(), 5);
    }

    #[test]
    fn unknown_char_is_lex_error() {
        let t = table("s : \"a\" ;");
        let lx = Lexer::for_table(&t).build();
        let err = lx.tokenize("a @").unwrap_err();
        assert_eq!(err, LexError { ch: '@', offset: 2 });
    }

    #[test]
    fn digits_without_number_class_error() {
        let t = table("s : \"a\" ;");
        let lx = Lexer::for_table(&t).build();
        assert!(lx.tokenize("5").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        let t = table("s : STR ;");
        let lx = Lexer::for_table(&t).string("STR").build();
        assert!(lx.tokenize("\"oops").is_err());
    }
}
