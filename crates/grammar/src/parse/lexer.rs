//! Hand-written lexer for the grammar text format.

use crate::error::{GrammarError, ParseErrorKind};

/// One lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub col: u32,
}

/// The kinds of token the format uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier or a quoted literal; the payload is the symbol name.
    Name(String),
    /// A `%directive` keyword, payload without the `%`.
    Directive(String),
    /// `:`
    Colon,
    /// `|`
    Pipe,
    /// `;`
    Semi,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Name(n) => format!("symbol {n:?}"),
            TokenKind::Directive(d) => format!("%{d}"),
            TokenKind::Colon => "':'".to_string(),
            TokenKind::Pipe => "'|'".to_string(),
            TokenKind::Semi => "';'".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

pub(crate) struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
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
        self.src.get(self.pos).copied()
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

    fn skip_trivia(&mut self) -> Result<(), GrammarError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'*') => {
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

    /// The source text from `start` to the current position. Every
    /// token ends at an ASCII byte or at the end of the text, so both
    /// ends are char boundaries.
    fn slice(&self, start: usize) -> String {
        self.text[start..self.pos].to_string()
    }

    fn is_ident_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' || b == b'.'
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> Result<Token, GrammarError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let tok = |kind| Token { kind, line, col };

        let Some(b) = self.peek() else {
            return Ok(tok(TokenKind::Eof));
        };
        match b {
            b':' => {
                self.bump();
                Ok(tok(TokenKind::Colon))
            }
            b'|' => {
                self.bump();
                Ok(tok(TokenKind::Pipe))
            }
            b';' => {
                self.bump();
                Ok(tok(TokenKind::Semi))
            }
            b'%' => {
                self.bump();
                let start = self.pos;
                while self.peek().is_some_and(Self::is_ident_byte) {
                    self.bump();
                }
                Ok(tok(TokenKind::Directive(self.slice(start))))
            }
            b'"' | b'\'' => {
                let quote = b;
                self.bump();
                let start = self.pos;
                loop {
                    match self.peek() {
                        None | Some(b'\n') => {
                            return Err(GrammarError::Parse {
                                line,
                                col,
                                kind: ParseErrorKind::UnterminatedLiteral,
                            })
                        }
                        Some(b) if b == quote => break,
                        Some(_) => {
                            self.bump();
                        }
                    }
                }
                let name = self.slice(start);
                self.bump();
                Ok(tok(TokenKind::Name(name)))
            }
            b if Self::is_ident_byte(b) || !b.is_ascii() => {
                // UTF-8 identifier bytes are taken verbatim.
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| Self::is_ident_byte(b) || !b.is_ascii())
                {
                    self.bump();
                }
                Ok(tok(TokenKind::Name(self.slice(start))))
            }
            other => Err(self.error(ParseErrorKind::UnexpectedChar(other as char))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_all(src: &str) -> Vec<TokenKind> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lx.next_token().expect("lex ok");
            let eof = t.kind == TokenKind::Eof;
            out.push(t.kind);
            if eof {
                return out;
            }
        }
    }

    #[test]
    fn punctuation_and_names() {
        let toks = lex_all("e : e \"+\" t | t ;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("e".into()),
                TokenKind::Colon,
                TokenKind::Name("e".into()),
                TokenKind::Name("+".into()),
                TokenKind::Name("t".into()),
                TokenKind::Pipe,
                TokenKind::Name("t".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn directives() {
        let toks = lex_all("%start e %left '+'");
        assert_eq!(
            toks,
            vec![
                TokenKind::Directive("start".into()),
                TokenKind::Name("e".into()),
                TokenKind::Directive("left".into()),
                TokenKind::Name("+".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_trivia() {
        let toks = lex_all("a // x\n /* y\n z */ b");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("a".into()),
                TokenKind::Name("b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_literal_reports_position() {
        let mut lx = Lexer::new("\n  \"abc");
        let err = loop {
            match lx.next_token() {
                Err(e) => break e,
                Ok(t) if t.kind == TokenKind::Eof => panic!("expected error"),
                Ok(_) => {}
            }
        };
        assert_eq!(
            err,
            GrammarError::Parse {
                line: 2,
                col: 3,
                kind: ParseErrorKind::UnterminatedLiteral
            }
        );
    }

    #[test]
    fn unterminated_comment_is_error() {
        let mut lx = Lexer::new("/* never closed");
        assert!(matches!(
            lx.next_token(),
            Err(GrammarError::Parse {
                kind: ParseErrorKind::UnterminatedComment,
                ..
            })
        ));
    }

    #[test]
    fn unexpected_char_is_error() {
        let mut lx = Lexer::new("(");
        assert!(matches!(
            lx.next_token(),
            Err(GrammarError::Parse {
                kind: ParseErrorKind::UnexpectedChar('('),
                ..
            })
        ));
    }

    #[test]
    fn multi_byte_identifiers_and_literals_are_read_verbatim() {
        let toks = lex_all("größe : \"é\" 'ж€' naïve_😀 ;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("größe".into()),
                TokenKind::Colon,
                TokenKind::Name("é".into()),
                TokenKind::Name("ж€".into()),
                TokenKind::Name("naïve_😀".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
        let g = crate::parse_grammar("s : \"é\" x ; x : 'ü' | größe ; größe : \"😀\" ;").unwrap();
        for name in ["é", "ü", "😀"] {
            assert!(g.terminal_by_name(name).is_some(), "{name}");
        }
        assert!(g.nonterminal_by_name("größe").is_some());
        assert!(g.terminal_by_name("Ã©").is_none());
    }

    #[test]
    fn primes_and_dots_in_identifiers() {
        let toks = lex_all("e' stmt.list");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("e'".into()),
                TokenKind::Name("stmt.list".into()),
                TokenKind::Eof,
            ]
        );
    }
}
