//! The request decoder never panics on untrusted lines.
//!
//! Request lines reach the daemon from the network, so
//! `serde_json::from_str` followed by `protocol::request_from_value` must
//! answer every line with `Ok` or `Err`. Each case draws a valid line for
//! one of the nine ops and applies one to four seeded mutations — byte
//! flips, truncations, splices of another line, runs of JSON
//! punctuation, `\u` escapes with lone surrogates, nesting past the
//! parser's depth limit, and out-of-range `deadline_ms`, `limit` and
//! `slow_us` fields — then decodes the result; a panic fails the case and
//! the shim prints its seed. A second property checks that every request
//! the encoder can represent decodes back to itself.

use std::time::Duration;

use lalr_service::protocol::{request_from_value, request_to_line, request_to_value};
use lalr_service::{GrammarFormat, ParseTarget, Request, TraceFilter};
use proptest::prelude::*;

/// The largest integer the JSON shim carries exactly (2^53).
const MAX_EXACT: u64 = 1 << 53;

/// Bytes with a meaning to the JSON parser, and a few never valid in it.
const PUNCTUATION: &[u8] = b"{}[]\":,\\-+.0123456789eEtrufalsn \t\r\n/\x00\x1f\x7f\xff";

/// `\u` escapes: lone and misordered surrogates, short and signed hex.
const ESCAPES: &[&str] = &[
    "\\ud800",
    "\\udbff\\u0041",
    "\\udc00",
    "\\ud83d\\ud83d",
    "\\ud83d\\ude00",
    "\\u+041",
    "\\u12",
    "\\u",
    "\\uZZZZ",
];

/// Values for `deadline_ms`, `limit` and `slow_us` outside what the
/// decoder accepts: negative, fractional, past 2^53 (the first with no
/// f64 of its own), overflowing f64, and of the wrong type.
const OUT_OF_RANGE: &[&str] = &[
    "-1",
    "0.5",
    "1e300",
    "1e999",
    "9007199254740993",
    "9007199254740994",
    "18446744073709551616",
    "\"5\"",
    "null",
    "true",
    "[]",
    "{}",
];

/// Characters for generated strings: ones the writer escapes, multi-byte
/// ones, and plain text.
const CHARS: &[char] = &[
    'a', 'Z', ' ', ':', ';', '|', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '€', '😀',
];

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
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

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.upto(items.len() - 1)]
    }

    fn text(&mut self) -> String {
        (0..self.upto(12)).map(|_| *self.pick(CHARS)).collect()
    }

    /// An integer the shim carries exactly, edge values likelier.
    fn int(&mut self) -> u64 {
        match self.upto(3) {
            0 => 0,
            1 => MAX_EXACT,
            2 => self.next() % 1_000,
            _ => self.next() % (MAX_EXACT + 1),
        }
    }

    fn texts(&mut self, max: usize) -> Vec<String> {
        (0..self.upto(max)).map(|_| self.text()).collect()
    }

    /// A request the encoder can represent: `sync` only with `recover`
    /// and a whole-millisecond deadline.
    fn request(&mut self) -> (Request, Option<Duration>) {
        let format = if self.coin() {
            GrammarFormat::Yacc
        } else {
            GrammarFormat::Native
        };
        let request = match self.upto(8) {
            0 => Request::Compile {
                grammar: self.text(),
                format,
            },
            1 => Request::Classify {
                grammar: self.text(),
                format,
            },
            2 => Request::Table {
                grammar: self.text(),
                format,
                compressed: self.coin(),
            },
            3 => {
                let target = if self.coin() {
                    ParseTarget::Text {
                        grammar: self.text(),
                        format,
                    }
                } else {
                    ParseTarget::Fingerprint(self.next())
                };
                let documents = self.texts(4);
                let recover = self.coin();
                let sync = if recover { self.texts(3) } else { Vec::new() };
                Request::Parse {
                    target,
                    documents,
                    recover,
                    sync,
                }
            }
            4 => Request::Stats,
            5 => Request::Metrics,
            6 => Request::Trace(TraceFilter {
                op: self.coin().then(|| self.text()),
                errors_only: self.coin(),
                slow_us: self.coin().then(|| self.int()),
                limit: self.coin().then(|| self.int() as usize),
            }),
            7 => Request::Health,
            _ => Request::Shutdown,
        };
        let deadline = self.coin().then(|| Duration::from_millis(self.int()));
        (request, deadline)
    }

    fn byte(&mut self) -> u8 {
        if self.coin() {
            *self.pick(PUNCTUATION)
        } else {
            self.next() as u8
        }
    }

    /// Applies one to four mutations to `line`, splicing from `donor`.
    fn mutate(&mut self, line: &[u8], donor: &[u8]) -> Vec<u8> {
        let mut out = line.to_vec();
        for _ in 0..1 + self.upto(3) {
            let at = self.upto(out.len());
            match self.upto(6) {
                // Byte flip.
                0 if at < out.len() => out[at] = self.byte(),
                // Truncation.
                1 => out.truncate(at),
                // Insertion of a run of punctuation.
                2 => {
                    let run: Vec<u8> = (0..1 + self.upto(7)).map(|_| self.byte()).collect();
                    out.splice(at..at, run);
                }
                // A `\u` escape, most often inside a string.
                3 => {
                    let escape = self.pick(ESCAPES).as_bytes();
                    out.splice(at..at, escape.iter().copied());
                }
                // Nesting around the parser's depth limit.
                4 => {
                    let depth = 100 + self.upto(100);
                    let (open, close) = if self.coin() {
                        ("[", "]")
                    } else {
                        ("{\"k\":", "}")
                    };
                    let nested = format!("{}0{}", open.repeat(depth), close.repeat(depth));
                    out.splice(at..at, nested.bytes());
                }
                // An out-of-range numeric field, right after the `{`.
                5 => {
                    let field = self.pick(&["deadline_ms", "limit", "slow_us"]);
                    let value = self.pick(OUT_OF_RANGE);
                    let member = format!("\"{field}\":{value},");
                    let at = out.len().min(1);
                    out.splice(at..at, member.bytes());
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

#[test]
fn out_of_range_numbers_are_refused() {
    for field in ["deadline_ms", "limit", "slow_us"] {
        for value in OUT_OF_RANGE {
            let line = format!("{{\"op\":\"trace\",\"{field}\":{value}}}");
            let decoded = serde_json::from_str(&line).map(|v| request_from_value(&v));
            assert!(!matches!(decoded, Ok(Ok(_))), "{line} decoded");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn request_decoder_never_panics_on_mutated_lines(seed in 0u64..u64::MAX) {
        let mut r = Rng(seed);
        let (request, deadline) = r.request();
        let line = request_to_line(&request, deadline);
        let (donor, donor_deadline) = r.request();
        let donor = request_to_line(&donor, donor_deadline);
        for _ in 0..4 {
            let mutant = r.mutate(line.as_bytes(), donor.as_bytes());
            let mutant = String::from_utf8_lossy(&mutant);
            // Either answer is fine; returning at all is the property.
            if let Ok(value) = serde_json::from_str(&mutant) {
                let _ = request_from_value(&value);
            }
        }
    }

    #[test]
    fn representable_requests_round_trip(seed in 0u64..u64::MAX) {
        let mut r = Rng(seed);
        let (request, deadline) = r.request();
        let value = request_to_value(&request, deadline);
        let decoded = request_from_value(&value).expect("an encoded request decodes");
        prop_assert_eq!(&decoded, &(request.clone(), deadline));
        // And through the line the daemon actually reads.
        let reparsed = serde_json::from_str(&value.to_string()).expect("an encoded line parses");
        prop_assert_eq!(request_from_value(&reparsed).expect("decodes"), (request, deadline));
    }
}
