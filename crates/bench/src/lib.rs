//! The evaluation harness: regenerates every table and figure of the
//! paper's empirical section (see `DESIGN.md` for the experiment index).
//!
//! The `report` binary prints the static tables:
//!
//! ```text
//! cargo run -p lalr-bench --bin report            # everything
//! cargo run -p lalr-bench --bin report -- table1  # one table
//! ```
//!
//! Timing experiments live in `benches/` (Criterion):
//!
//! * `lookahead_methods` — Table 2 (DP vs propagation vs LR(1)-merge vs SLR)
//! * `scaling` — Figure 1 (method time vs grammar size)
//! * `digraph_ablation` — E6 (Digraph vs naive closure vs Warshall)
//! * `set_repr` — E7 (bit-set vs hash-set Digraph)
//! * `selective` — E8 (full vs inadequate-states-only computation)
//! * `parse_throughput` — runtime driver sanity benchmark
//! * `relation_build` — the LR(0) build and the relation build next to
//!   the two Digraph passes they feed

// `unsafe` is denied (not forbidden) because the counting global
// allocator in `alloc_counter` must delegate to `std::alloc::System`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_counter;
pub mod methods;
pub mod report;

use lalr_corpus::synthetic::{self, RandomConfig};
use lalr_grammar::{parse_grammar, Grammar};

/// A seeded random grammar as perfbench's `generate` workload sends it:
/// 300 terminals, bodies of up to 4 symbols, ε-productions at 10%, its
/// `Display` text re-parsed. `(9, 10, 150)` and `(8, 16, 200)` are the
/// workload's two conflict-heavy grammars.
pub fn benchmark_random(seed: u64, nonterminals: usize, productions: usize) -> Grammar {
    let config = RandomConfig {
        nonterminals,
        terminals: 300,
        productions,
        max_rhs: 4,
        epsilon_prob: 0.1,
    };
    parse_grammar(&synthetic::random(seed, config).to_string()).expect("Display re-parses")
}

/// The four grammars the per-layer benches time: a realistic grammar,
/// the widest synthetic family the benchmark draws, and its two
/// conflict-heavy random grammars.
pub fn layer_grammars() -> Vec<(&'static str, Grammar)> {
    vec![
        (
            "c_subset",
            lalr_corpus::by_name("c_subset")
                .expect("corpus entry exists")
                .grammar(),
        ),
        ("wide_forest_100", synthetic::wide_forest(100)),
        ("random9_10nt_150p", benchmark_random(9, 10, 150)),
        ("random8_16nt_200p", benchmark_random(8, 16, 200)),
    ]
}
