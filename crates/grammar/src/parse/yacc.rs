//! Reader for yacc/bison `.y` grammar files.
//!
//! Real-world grammars live in yacc syntax. [`parse_yacc`] accepts the
//! subset needed to *analyze* them: the declarations section (`%token`,
//! `%left`/`%right`/`%nonassoc`, `%start`; other `%…` declarations and
//! `%{ … %}` blocks are skipped), the rules section with semantic actions
//! `{ … }` stripped (balanced braces), character literals `'+'` and
//! string literals `"if"`, and `%prec`. The trailing user-code section
//! after the second `%%` is ignored.

use crate::builder::GrammarBuilder;
use crate::error::{GrammarError, ParseErrorKind};
use crate::grammar::Grammar;
use crate::parse::Assoc;

/// Parses a yacc/bison-style grammar file.
///
/// # Errors
///
/// Returns [`GrammarError`] for malformed input (with position) or for the
/// same semantic problems [`crate::parse_grammar`] reports.
///
/// # Examples
///
/// ```
/// use lalr_grammar::parse_yacc;
///
/// let g = parse_yacc(r#"
/// %token NUM
/// %left '+'
/// %left '*'
/// %%
/// expr : expr '+' expr { $$ = $1 + $3; }
///      | expr '*' expr { $$ = $1 * $3; }
///      | NUM
///      ;
/// %%
/// int main() { return 0; }
/// "#)?;
/// assert_eq!(g.production_count(), 4);
/// assert!(g.terminal_by_name("+").is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_yacc(src: &str) -> Result<Grammar, GrammarError> {
    YaccReader::new(src).run()
}

struct YaccReader<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
    builder: GrammarBuilder,
}

impl<'a> YaccReader<'a> {
    fn new(src: &'a str) -> Self {
        YaccReader {
            bytes: src.as_bytes(),
            src,
            pos: 0,
            line: 1,
            col: 1,
            builder: GrammarBuilder::new(),
        }
    }

    fn error(&self, kind: ParseErrorKind) -> GrammarError {
        GrammarError::Parse {
            line: self.line,
            col: self.col,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    /// The character at the current position, for error reports (`?` at
    /// the end of input). Scans stop only at ASCII bytes, so the position
    /// is a char boundary.
    fn peek_char(&self) -> char {
        self.src
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or('?')
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), GrammarError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (line, col) = (self.line, self.col);
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            None => {
                                return Err(GrammarError::Parse {
                                    line,
                                    col,
                                    kind: ParseErrorKind::UnterminatedComment,
                                })
                            }
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn at_section_divider(&self) -> bool {
        self.peek() == Some(b'%') && self.peek2() == Some(b'%')
    }

    fn read_ident(&mut self) -> String {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                self.bump();
            } else {
                break;
            }
        }
        self.src[start..self.pos].to_string()
    }

    /// `'+'`, `'\n'`, `"if"` — returns the literal's symbol name. Runs
    /// between escapes are sliced from the source text: they end at ASCII
    /// bytes, so on char boundaries.
    fn read_literal(&mut self) -> Result<String, GrammarError> {
        let quote = self.bump().expect("caller saw the quote");
        let (line, col) = (self.line, self.col);
        let unterminated = GrammarError::Parse {
            line,
            col,
            kind: ParseErrorKind::UnterminatedLiteral,
        };
        let mut name = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(unterminated),
                Some(b'\\') => {
                    name.push_str(&self.src[run..self.pos]);
                    self.bump();
                    // `\n` and `\t` name their control character; any
                    // other escaped char names itself.
                    let escaped = match self.src[self.pos..].chars().next() {
                        None => return Err(unterminated),
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some(c) => c,
                    };
                    name.push(escaped);
                    for _ in 0..escaped.len_utf8() {
                        self.bump();
                    }
                    run = self.pos;
                }
                Some(b) if b == quote => {
                    name.push_str(&self.src[run..self.pos]);
                    self.bump();
                    return Ok(name);
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    /// Skips a balanced `{ … }` action (handles nested braces, strings,
    /// chars and comments inside).
    fn skip_action(&mut self) -> Result<(), GrammarError> {
        let (line, col) = (self.line, self.col);
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => {
                    return Err(GrammarError::Parse {
                        line,
                        col,
                        kind: ParseErrorKind::UnterminatedComment,
                    })
                }
                Some(b'{') => {
                    depth += 1;
                    self.bump();
                }
                Some(b'}') => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Some(b'\'') | Some(b'"') => {
                    self.read_literal()?;
                }
                Some(b'/') if self.peek2() == Some(b'/') || self.peek2() == Some(b'*') => {
                    self.skip_ws_and_comments()?;
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    /// Skips a `%{ … %}` prologue block.
    fn skip_prologue(&mut self) -> Result<(), GrammarError> {
        let (line, col) = (self.line, self.col);
        self.bump(); // %
        self.bump(); // {
        loop {
            match self.bump() {
                None => {
                    return Err(GrammarError::Parse {
                        line,
                        col,
                        kind: ParseErrorKind::UnterminatedComment,
                    })
                }
                Some(b'%') if self.peek() == Some(b'}') => {
                    self.bump();
                    return Ok(());
                }
                Some(_) => {}
            }
        }
    }

    fn declarations(&mut self) -> Result<(), GrammarError> {
        loop {
            self.skip_ws_and_comments()?;
            if self.at_section_divider() {
                self.bump();
                self.bump();
                return Ok(());
            }
            match self.peek() {
                None => {
                    return Err(self.error(ParseErrorKind::Expected {
                        wanted: "'%%' before the rules section".to_string(),
                        found: "end of input".to_string(),
                    }))
                }
                Some(b'%') if self.peek2() == Some(b'{') => self.skip_prologue()?,
                Some(b'%') => {
                    self.bump();
                    let dir = self.read_ident();
                    match dir.as_str() {
                        "token" | "term" => {
                            self.type_tag()?;
                            for name in self.symbol_list()? {
                                self.builder.terminal(name);
                            }
                        }
                        "left" | "right" | "nonassoc" => {
                            let assoc = match dir.as_str() {
                                "left" => Assoc::Left,
                                "right" => Assoc::Right,
                                _ => Assoc::NonAssoc,
                            };
                            self.type_tag()?;
                            let names = self.symbol_list()?;
                            self.builder.precedence(assoc, names);
                        }
                        "start" => {
                            self.skip_ws_and_comments()?;
                            let name = self.read_ident();
                            self.builder.start(name);
                        }
                        // Declarations irrelevant to analysis: skip the
                        // rest of their line (types/unions skip blocks).
                        "union" | "code" => {
                            self.skip_ws_and_comments()?;
                            if self.peek() == Some(b'{') {
                                self.skip_action()?;
                            }
                        }
                        _ => {
                            while let Some(b) = self.peek() {
                                if b == b'\n' {
                                    break;
                                }
                                self.bump();
                            }
                        }
                    }
                }
                Some(_) => return Err(self.error(ParseErrorKind::UnexpectedChar(self.peek_char()))),
            }
        }
    }

    /// An optional `<type>` tag after %token/%left/etc.
    fn type_tag(&mut self) -> Result<(), GrammarError> {
        self.skip_ws_and_comments()?;
        if self.peek() == Some(b'<') {
            while let Some(b) = self.bump() {
                if b == b'>' {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Names/literals until end of the declaration.
    fn symbol_list(&mut self) -> Result<Vec<String>, GrammarError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws_and_comments()?;
            match self.peek() {
                Some(b'\'') | Some(b'"') => out.push(self.read_literal()?),
                Some(b) if b.is_ascii_alphabetic() || b == b'_' => out.push(self.read_ident()),
                Some(b) if b.is_ascii_digit() => {
                    // yacc allows explicit token numbers; skip them.
                    while let Some(d) = self.peek() {
                        if d.is_ascii_digit() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                _ => return Ok(out),
            }
        }
    }

    fn rules(&mut self) -> Result<(), GrammarError> {
        loop {
            self.skip_ws_and_comments()?;
            if self.at_section_divider() || self.peek().is_none() {
                return Ok(()); // trailing user code ignored
            }
            // LHS ident then ':'.
            let lhs = self.read_ident();
            if lhs.is_empty() {
                return Err(self.error(ParseErrorKind::UnexpectedChar(self.peek_char())));
            }
            self.skip_ws_and_comments()?;
            if self.peek() != Some(b':') {
                return Err(self.error(ParseErrorKind::Expected {
                    wanted: "':'".to_string(),
                    found: format!("{:?}", self.peek().map(|_| self.peek_char())),
                }));
            }
            self.bump();
            // Alternatives.
            let mut rhs: Vec<String> = Vec::new();
            let mut prec: Option<String> = None;
            loop {
                self.skip_ws_and_comments()?;
                match self.peek() {
                    Some(b';') => {
                        self.bump();
                        self.emit(&lhs, std::mem::take(&mut rhs), prec.take());
                        break;
                    }
                    Some(b'|') => {
                        self.bump();
                        self.emit(&lhs, std::mem::take(&mut rhs), prec.take());
                    }
                    Some(b'{') => self.skip_action()?,
                    Some(b'\'') | Some(b'"') => rhs.push(self.read_literal()?),
                    Some(b'%') => {
                        self.bump();
                        let dir = self.read_ident();
                        match dir.as_str() {
                            "prec" => {
                                self.skip_ws_and_comments()?;
                                prec = Some(match self.peek() {
                                    Some(b'\'') | Some(b'"') => self.read_literal()?,
                                    _ => self.read_ident(),
                                });
                            }
                            "empty" => {}
                            other => {
                                return Err(
                                    self.error(ParseErrorKind::UnknownDirective(other.to_string()))
                                )
                            }
                        }
                    }
                    Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                        rhs.push(self.read_ident());
                    }
                    // yacc allows rules terminated by the next rule: `a : b
                    // c : d` is invalid in our subset — require ; or |.
                    Some(_) => {
                        return Err(self.error(ParseErrorKind::UnexpectedChar(self.peek_char())))
                    }
                    None => {
                        // Accept an unterminated final rule (bison does).
                        self.emit(&lhs, std::mem::take(&mut rhs), prec.take());
                        break;
                    }
                }
            }
        }
    }

    fn emit(&mut self, lhs: &str, rhs: Vec<String>, prec: Option<String>) {
        match prec {
            None => self.builder.rule(lhs, rhs),
            Some(p) => self.builder.rule_with_prec(lhs, rhs, p),
        };
    }

    fn run(mut self) -> Result<Grammar, GrammarError> {
        self.declarations()?;
        self.rules()?;
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALC: &str = r#"
%{
#include <stdio.h>
int yylex(void);
%}
%union { double val; }
%token <val> NUM
%type <val> expr
%left '+' '-'
%left '*' '/'
%right UMINUS
%start expr
%%
expr : expr '+' expr  { $$ = $1 + $3; }
     | expr '-' expr  { $$ = $1 - $3; }
     | expr '*' expr  { $$ = $1 * $3; }
     | expr '/' expr  { $$ = $1 / $3; }
     | '-' expr %prec UMINUS { $$ = -$2; }
     | '(' expr ')'   { $$ = $2; }
     | NUM
     ;
%%
int main(void) { return yyparse(); }
"#;

    #[test]
    fn parses_a_realistic_y_file() {
        let g = parse_yacc(CALC).unwrap();
        assert_eq!(g.production_count(), 8);
        assert_eq!(g.nonterminal_name(g.start()), "expr");
        let plus = g.terminal_by_name("+").unwrap();
        assert!(g.precedence_of(plus).is_some());
        // %prec captured.
        let e = g.nonterminal_by_name("expr").unwrap();
        let neg = g.productions_of(e)[4];
        assert_eq!(
            g.production(neg).prec_override(),
            g.terminal_by_name("UMINUS")
        );
    }

    #[test]
    fn actions_with_nested_braces_and_strings_are_skipped() {
        let g = parse_yacc("%%\ns : 'a' { if (x) { printf(\"}{\"); } } | 'b' ;\n").unwrap();
        assert_eq!(g.production_count(), 3);
    }

    #[test]
    fn epsilon_alternative_and_empty_keyword() {
        let g = parse_yacc("%%\ns : 'a' s | %empty ;\n").unwrap();
        let s = g.nonterminal_by_name("s").unwrap();
        assert!(g.production(g.productions_of(s)[1]).is_empty());
        let g = parse_yacc("%%\ns : 'a' s | ;\n").unwrap();
        let s = g.nonterminal_by_name("s").unwrap();
        assert!(g.production(g.productions_of(s)[1]).is_empty());
    }

    #[test]
    fn character_escapes_in_literals() {
        let g = parse_yacc("%%\ns : '\\n' | '\\t' | '\\\\' ;\n").unwrap();
        assert!(g.terminal_by_name("\n").is_some());
        assert!(g.terminal_by_name("\t").is_some());
        assert!(g.terminal_by_name("\\").is_some());
    }

    #[test]
    fn multi_byte_identifiers_and_literals_are_read_verbatim() {
        let g =
            parse_yacc("%token NUM\n%%\ns : 'é' \"größe\" '\\ж' x ;\nx : \"😀\" NUM ;\n").unwrap();
        for name in ["é", "größe", "ж", "😀"] {
            assert!(g.terminal_by_name(name).is_some(), "{name}");
        }
        assert!(g.terminal_by_name("Ã©").is_none());
        let err = parse_yacc("%%\né : 'x' ;\n").unwrap_err();
        assert!(
            err.to_string().contains("unexpected character 'é'"),
            "{err}"
        );
    }

    #[test]
    fn missing_section_divider_is_an_error() {
        // Without `%%` the rule's `:` is unparseable in the declarations
        // section (the LHS ident is swallowed by the %token list).
        let err = parse_yacc("%token A\ns : A ;").unwrap_err();
        assert!(matches!(err, GrammarError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn unknown_declarations_are_skipped_line_wise() {
        let g = parse_yacc("%define api.pure full\n%expect 1\n%token A\n%%\ns : A ;\n").unwrap();
        assert_eq!(g.production_count(), 2);
    }

    #[test]
    fn final_rule_without_semicolon() {
        let g = parse_yacc("%%\ns : 'a'").unwrap();
        assert_eq!(g.production_count(), 2);
    }

    #[test]
    fn same_analysis_as_native_format() {
        // The yacc calc grammar and the equivalent native-format grammar
        // produce identical classification.
        let y = parse_yacc(CALC).unwrap();
        let native = crate::parse_grammar(
            r#"
            %left "+" "-"
            %left "*" "/"
            %right UMINUS
            %start expr
            expr : expr "+" expr | expr "-" expr | expr "*" expr
                 | expr "/" expr | "-" expr %prec UMINUS
                 | "(" expr ")" | NUM ;
            "#,
        )
        .unwrap();
        assert_eq!(y.production_count(), native.production_count());
        assert_eq!(y.terminal_count(), native.terminal_count());
    }
}
