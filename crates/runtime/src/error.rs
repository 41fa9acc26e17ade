//! Lexing and parsing errors.

use std::error::Error;
use std::fmt;

use crate::token::Token;

/// A character the lexer cannot start a token with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// The offending character.
    pub ch: char,
    /// Its byte offset.
    pub offset: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character {:?} at offset {}",
            self.ch, self.offset
        )
    }
}

impl Error for LexError {}

/// A syntax error: where the parser was, what it saw, what it wanted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The automaton state the error occurred in.
    pub state: u32,
    /// The offending token, or `None` at end of input. Its text is
    /// copied out of the input, so the error outlives the document.
    pub found: Option<Token<'static>>,
    /// Names of the terminals with a non-error action in `state`.
    pub expected: Vec<String>,
    /// Where the error points: the offending token's offset, or — at end
    /// of input — the last consumed token's offset plus its text's byte
    /// length (one past its end in a lexed input).
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.found {
            Some(t) => write!(f, "unexpected {:?} at offset {}", t.text(), t.offset())?,
            None => write!(f, "unexpected end of input at offset {}", self.offset)?,
        }
        if !self.expected.is_empty() {
            let mut names = self.expected.clone();
            names.truncate(6);
            write!(f, ", expected {}", names.join(" or "))?;
            if self.expected.len() > 6 {
                write!(f, " (and {} more)", self.expected.len() - 6)?;
            }
        }
        Ok(())
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_error_message() {
        let e = LexError { ch: '@', offset: 4 };
        assert_eq!(e.to_string(), "unexpected character '@' at offset 4");
    }

    #[test]
    fn parse_error_message_with_token() {
        let e = ParseError {
            state: 3,
            found: Some(Token::new(1, ")", 7)),
            expected: vec!["NUM".into(), "(".into()],
            offset: 7,
        };
        assert_eq!(
            e.to_string(),
            "unexpected \")\" at offset 7, expected NUM or ("
        );
    }

    #[test]
    fn parse_error_message_at_eof_truncates_expected() {
        let e = ParseError {
            state: 0,
            found: None,
            expected: (0..9).map(|i| format!("t{i}")).collect(),
            offset: 12,
        };
        let msg = e.to_string();
        assert!(msg.starts_with("unexpected end of input at offset 12, expected "));
        assert!(msg.ends_with("(and 3 more)"));
    }
}
