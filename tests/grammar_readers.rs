//! The grammar readers never panic on untrusted text.
//!
//! Grammar text reaches the daemon from the network, so `parse_grammar`
//! and `parse_yacc` must answer every input with `Ok` or `Err`. Each case
//! takes a corpus source or a yacc sample, applies one to four seeded
//! mutations — byte flips, truncations, insertions of grammar
//! punctuation, splices of another source — and hands the result to both
//! readers; a panic fails the case and the shim prints its seed.

use lalr::grammar::{parse_grammar, parse_yacc};
use proptest::prelude::*;

/// A yacc sample with every construct the reader knows: declarations,
/// precedence, `%prec`, actions with nested braces, strings, character
/// literals and comments, and a trailer.
const YACC_SAMPLE: &str = r#"
%{
#include <stdio.h>
%}
%union { int n; char *s; }
%token <n> NUM
%token IDENT "ident"
%left '+' '-'
%left '*' '/'
%right UMINUS
%nonassoc LOWER_THAN_ELSE
%nonassoc ELSE
%start prog
%%
prog : stmts ;
stmts : /* empty */ | stmts stmt ;
stmt : IDENT '=' expr ';' { set($1, $3); }
     | IF '(' expr ')' stmt %prec LOWER_THAN_ELSE
     | IF '(' expr ')' stmt ELSE stmt
     | '{' stmts '}' { if (x) { y("}"); } else { z('}'); } }
     ;
expr : expr '+' expr { $$ = $1 + $3; }
     | expr '-' expr
     | expr '*' expr
     | expr '/' expr
     | '-' expr %prec UMINUS { $$ = -$2; }
     | '(' expr ')'
     | NUM
     | IDENT
     ;
%%
int main(void) { return yyparse(); }
"#;

/// Bytes the readers treat specially, and a few that are never valid.
const PUNCTUATION: &[u8] = b":|;%{}'\"/*\\<>\n \t$@0aZ_.-\x00\x7f";

/// SplitMix64, seeded per case.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..=n`.
    fn upto(&mut self, n: usize) -> usize {
        (self.next() % (n as u64 + 1)) as usize
    }

    fn byte(&mut self) -> u8 {
        if self.next() & 1 == 0 {
            PUNCTUATION[self.upto(PUNCTUATION.len() - 1)]
        } else {
            self.next() as u8
        }
    }

    /// Applies one to four mutations to `text`, splicing from `donor`.
    fn mutate(&mut self, text: &[u8], donor: &[u8]) -> Vec<u8> {
        let mut out = text.to_vec();
        for _ in 0..1 + self.upto(3) {
            let at = self.upto(out.len());
            match self.next() % 4 {
                // Byte flip.
                0 if at < out.len() => out[at] = self.byte(),
                // Truncation.
                1 => out.truncate(at),
                // Insertion of a short run.
                2 => {
                    let run: Vec<u8> = (0..1 + self.upto(7)).map(|_| self.byte()).collect();
                    out.splice(at..at, run);
                }
                // Splice: a slice of the donor replaces a slice here.
                _ => {
                    let from = self.upto(donor.len());
                    let to = (from + self.upto(64)).min(donor.len());
                    let end = (at + self.upto(64)).min(out.len());
                    out.splice(at..end, donor[from..to].iter().copied());
                }
            }
        }
        out
    }
}

fn sources() -> Vec<&'static str> {
    let mut sources: Vec<&'static str> = lalr::corpus::all_entries()
        .into_iter()
        .map(|e| e.source)
        .collect();
    sources.push(YACC_SAMPLE);
    sources
}

#[test]
fn unmutated_sources_parse() {
    let g = parse_yacc(YACC_SAMPLE).expect("the yacc sample parses");
    assert!(g.terminal_by_name("ELSE").is_some());
    for entry in lalr::corpus::all_entries() {
        parse_grammar(entry.source)
            .or_else(|_| parse_yacc(entry.source))
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn grammar_readers_never_panic_on_mutated_sources(seed in 0u64..u64::MAX) {
        let sources = sources();
        let mut m = Mutator(seed);
        let text = sources[m.upto(sources.len() - 1)].as_bytes();
        let donor = sources[m.upto(sources.len() - 1)].as_bytes();
        for _ in 0..4 {
            let mutant = m.mutate(text, donor);
            let mutant = String::from_utf8_lossy(&mutant);
            // Either answer is fine; returning at all is the property.
            let _ = parse_grammar(&mutant);
            let _ = parse_yacc(&mutant);
        }
    }
}
