//! Tokens.

use std::borrow::Cow;
use std::fmt;

/// One lexical token: a terminal index into the parse table's alphabet,
/// the matched text, and its byte offset in the input.
///
/// The text is usually borrowed from the document being parsed, so
/// tokenising allocates nothing per token; an owned `String` works too.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token<'a> {
    terminal: u32,
    text: Cow<'a, str>,
    offset: usize,
}

impl<'a> Token<'a> {
    /// Creates a token; `text` may be a `&str` (borrowed) or a `String`.
    pub fn new(terminal: u32, text: impl Into<Cow<'a, str>>, offset: usize) -> Token<'a> {
        Token {
            terminal,
            text: text.into(),
            offset,
        }
    }

    /// The terminal index.
    #[inline]
    pub fn terminal(&self) -> u32 {
        self.terminal
    }

    /// The matched text.
    #[inline]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Byte offset of the first character in the input.
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The same token with its text copied out of the input, if borrowed.
    pub fn into_owned(self) -> Token<'static> {
        Token {
            terminal: self.terminal,
            text: Cow::Owned(self.text.into_owned()),
            offset: self.offset,
        }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}", self.text(), self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_display() {
        let t = Token::new(3, "while", 10);
        assert_eq!(t.terminal(), 3);
        assert_eq!(t.text(), "while");
        assert_eq!(t.offset(), 10);
        assert_eq!(t.to_string(), "\"while\"@10");
    }

    #[test]
    fn borrowed_and_owned_text_compare_equal() {
        let input = String::from("x := 1");
        let borrowed = Token::new(2, &input[..1], 0);
        assert!(matches!(borrowed.text, Cow::Borrowed(_)));
        let owned = borrowed.clone().into_owned();
        assert!(matches!(owned.text, Cow::Owned(_)));
        assert_eq!(owned, borrowed);
        assert_eq!(Token::new(2, String::from("x"), 0), borrowed);
    }
}
