//! The unit the cache stores: one grammar, fully compiled.

use std::panic::{self, AssertUnwindSafe};

use lalr_automata::Lr0Automaton;
use lalr_core::{
    classify_recorded, DigraphStats, LalrAnalysis, LookaheadSets, MethodAdequacy, Parallelism,
    RelationStats, Relations,
};
use lalr_grammar::Grammar;
use lalr_obs::Recorder;
use lalr_runtime::ReduceLoop;
use lalr_store::ArtifactRecord;
use lalr_tables::{build_table, CompressedTable, ParseTable, TableOptions};

use crate::error::ServiceError;

/// How a grammar text should be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrammarFormat {
    /// The native `lalr-grammar` text format.
    #[default]
    Native,
    /// yacc/bison syntax (actions stripped), as `lalrgen` does for `.y`
    /// files.
    Yacc,
}

/// Pipeline intermediates that only a fresh compile produces — kept for
/// diagnostics, not needed to serve any request op.
#[derive(Debug)]
struct PipelineExtras {
    grammar: Grammar,
    lr0: Lr0Automaton,
    lookaheads: LookaheadSets,
}

/// Everything the pipeline produces for one grammar, bundled so a cache
/// hit answers *any* request kind — compile, classify, table, or parse —
/// without touching the engine again.
///
/// An artifact can come from two places: a fresh compile (which also
/// carries the pipeline intermediates — grammar, automaton, look-ahead
/// sets) or the on-disk store (tables and summary stats only, via
/// [`CompiledArtifact::from_record`]). Every request op is served from
/// the always-present summary + tables, so the two origins answer
/// identically.
#[derive(Debug)]
pub struct CompiledArtifact {
    fingerprint: u64,
    states: usize,
    productions: usize,
    terminals: usize,
    adequacy: MethodAdequacy,
    relations: RelationStats,
    reads: DigraphStats,
    includes: DigraphStats,
    table: ParseTable,
    compressed: CompressedTable,
    approx_bytes: usize,
    extras: Option<PipelineExtras>,
    /// Where the table makes the parser reduce forever, found at compile
    /// time (see [`CompiledArtifact::reduce_loop`]).
    reduce_loop: Option<ReduceLoop>,
}

impl CompiledArtifact {
    /// Runs the full pipeline — parse → LR(0) → DeRemer–Pennello →
    /// classification → dense + compressed tables — under `catch_unwind`,
    /// so an engine bug becomes a [`ServiceError::Panicked`] response
    /// instead of a dead worker.
    ///
    /// `_pipeline` is ignored — a compile always runs sequentially. The
    /// argument remains only so existing callers build unchanged.
    pub fn compile(
        text: &str,
        format: GrammarFormat,
        fingerprint: u64,
        _pipeline: &Parallelism,
    ) -> Result<CompiledArtifact, ServiceError> {
        Self::compile_recorded(text, format, fingerprint, _pipeline, &lalr_obs::NULL)
    }

    /// [`CompiledArtifact::compile`] under an observer: the service folds
    /// each compile's phase timings (`parse`, `lr0.build`,
    /// `relations.build`, the two traversals, `la.union`, `classify`,
    /// `tables.build`) into its metrics. `_pipeline` is ignored, as in
    /// [`CompiledArtifact::compile`].
    pub fn compile_recorded(
        text: &str,
        format: GrammarFormat,
        fingerprint: u64,
        _pipeline: &Parallelism,
        rec: &dyn Recorder,
    ) -> Result<CompiledArtifact, ServiceError> {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            Self::compile_inner(text, format, fingerprint, rec)
        }));
        match result {
            Ok(r) => r,
            Err(payload) => Err(ServiceError::from_panic(payload.as_ref())),
        }
    }

    fn compile_inner(
        text: &str,
        format: GrammarFormat,
        fingerprint: u64,
        rec: &dyn Recorder,
    ) -> Result<CompiledArtifact, ServiceError> {
        let parsed = {
            let _span = lalr_obs::span(rec, "parse");
            match format {
                GrammarFormat::Native => lalr_grammar::parse_grammar(text),
                GrammarFormat::Yacc => lalr_grammar::parse_yacc(text),
            }
        };
        let grammar = parsed.map_err(|e| ServiceError::BadGrammar(e.to_string()))?;
        let lr0 = Lr0Automaton::build_recorded(&grammar, rec);
        // Classify merges these relations for NQLALR, so they are built
        // once for both, and freed before the tables are.
        let relations = Relations::build_recorded(&grammar, &lr0, rec);
        let analysis = LalrAnalysis::from_relations_recorded(
            &grammar,
            &lr0,
            &relations,
            &Parallelism::sequential(),
            rec,
        );
        let adequacy = {
            // The per-method spans inside become nested under `classify`,
            // so the service's top-level phase list stays flat.
            let _span = lalr_obs::span(rec, "classify");
            classify_recorded(&grammar, &lr0, &relations, &analysis, rec)
        };
        drop(relations);
        let relations = analysis.relation_stats().clone();
        let reads = analysis.reads_traversal().clone();
        let includes = analysis.includes_traversal().clone();
        let (table, compressed) = {
            let _span = lalr_obs::span(rec, "tables.build");
            let table = build_table(
                &grammar,
                &lr0,
                analysis.lookaheads(),
                TableOptions::default(),
            );
            let compressed = CompressedTable::from_dense(&table);
            (table, compressed)
        };
        // Whether the parser can reduce forever on this table is settled
        // once, here; the grammar rules nearly every table out unread.
        let reduce_loop = lalr_runtime::reduce_loop(&grammar, &table);
        let mut artifact = CompiledArtifact {
            fingerprint,
            states: lr0.state_count(),
            productions: grammar.production_count(),
            terminals: grammar.terminal_count(),
            adequacy,
            relations,
            reads,
            includes,
            table,
            compressed,
            approx_bytes: 0,
            extras: Some(PipelineExtras {
                grammar,
                lr0,
                lookaheads: analysis.into_lookaheads(),
            }),
            reduce_loop,
        };
        artifact.approx_bytes = artifact.estimate_bytes();
        Ok(artifact)
    }

    /// Estimated resident size, used for the cache's byte budget.
    ///
    /// An estimate, not an exact heap measurement: it sums the dominant
    /// dense structures (tables, look-ahead bit rows, automaton items and
    /// transitions) from their element counts and sizes, ignoring
    /// per-allocation overhead and small metadata. Relative sizes between
    /// artifacts — which is what LRU accounting needs — track reality.
    /// Store-loaded artifacts carry no pipeline intermediates, so only
    /// the table terms contribute for them.
    fn estimate_bytes(&self) -> usize {
        use std::mem::size_of;

        // The dimensions alone: `ParseTable::stats` would scan every cell.
        let states = self.table.state_count() as usize;
        let dense_table =
            states * self.table.terminal_count() as usize * size_of::<lalr_tables::Action>()
                + states * self.table.nonterminal_count() as usize * size_of::<u32>();
        let compressed_table = self.compressed.explicit_entries()
            * (size_of::<u32>() + size_of::<lalr_tables::Action>())
            + self.compressed.state_count() * 2 * size_of::<lalr_tables::Action>();
        let strings: usize = (0..self.table.production_count())
            .map(|p| self.table.production(p as u32).display.len())
            .sum();
        let mut total = dense_table + compressed_table + strings;
        if let Some(extras) = &self.extras {
            total += extras.lookaheads.reduction_count()
                * extras
                    .lookaheads
                    .terminal_count()
                    .div_ceil(usize::BITS as usize)
                * size_of::<usize>();
            for state in extras.lr0.states() {
                total += extras.lr0.kernel(state).items().len() * 8
                    + extras.lr0.transitions(state).len() * 12
                    + extras.lr0.reductions(state).len() * 4
                    + 32;
            }
            total += extras.grammar.size() * 8
                + extras.grammar.production_count() * 48
                + extras.grammar.symbol_count() * 24;
        }
        total
    }

    /// Rebuilds an artifact from a store record (tables + summary, no
    /// pipeline intermediates).
    pub fn from_record(record: ArtifactRecord) -> CompiledArtifact {
        CompiledArtifact {
            fingerprint: record.fingerprint,
            states: record.states as usize,
            productions: record.productions as usize,
            terminals: record.terminals as usize,
            adequacy: record.adequacy,
            relations: record.relations,
            reads: record.reads,
            includes: record.includes,
            table: record.table,
            compressed: record.compressed,
            approx_bytes: record.approx_bytes as usize,
            extras: None,
            reduce_loop: record
                .reduce_loop
                .map(|(state, terminal)| ReduceLoop { state, terminal }),
        }
    }

    /// Snapshots the storable parts of this artifact for a store
    /// publish. `key` is the full normalized cache key, kept on disk
    /// for collision confirmation.
    pub fn to_record(&self, key: &str) -> ArtifactRecord {
        ArtifactRecord {
            fingerprint: self.fingerprint,
            key: key.to_string(),
            states: self.states as u32,
            productions: self.productions as u32,
            terminals: self.terminals as u32,
            approx_bytes: self.approx_bytes as u64,
            adequacy: self.adequacy.clone(),
            relations: self.relations.clone(),
            reads: self.reads.clone(),
            includes: self.includes.clone(),
            table: self.table.clone(),
            compressed: self.compressed.clone(),
            reduce_loop: self.reduce_loop.map(|l| (l.state, l.terminal)),
        }
    }

    /// Fingerprint of the normalized cache-key text.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// LR(0) state count.
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// Grammar production count.
    pub fn production_count(&self) -> usize {
        self.productions
    }

    /// Grammar terminal count.
    pub fn terminal_count(&self) -> usize {
        self.terminals
    }

    /// The parsed grammar — present only on freshly compiled artifacts,
    /// not on store-loaded ones.
    pub fn grammar(&self) -> Option<&Grammar> {
        self.extras.as_ref().map(|e| &e.grammar)
    }

    /// The LR(0) automaton — present only on freshly compiled artifacts.
    pub fn lr0(&self) -> Option<&Lr0Automaton> {
        self.extras.as_ref().map(|e| &e.lr0)
    }

    /// The LALR(1) look-ahead sets — present only on freshly compiled
    /// artifacts.
    pub fn lookaheads(&self) -> Option<&LookaheadSets> {
        self.extras.as_ref().map(|e| &e.lookaheads)
    }

    /// Per-method conflict counts and the grammar class.
    pub fn adequacy(&self) -> &MethodAdequacy {
        &self.adequacy
    }

    /// Sizes of the four look-ahead relations.
    pub fn relation_stats(&self) -> &RelationStats {
        &self.relations
    }

    /// SCC structure of the `reads` traversal.
    pub fn reads_traversal(&self) -> &DigraphStats {
        &self.reads
    }

    /// SCC structure of the `includes` traversal.
    pub fn includes_traversal(&self) -> &DigraphStats {
        &self.includes
    }

    /// The dense ACTION/GOTO table (conflicts resolved yacc-style).
    pub fn table(&self) -> &ParseTable {
        &self.table
    }

    /// Where the table would make the parser reduce forever, if anywhere
    /// ([`lalr_runtime::reduce_loop`], settled at compile time and stored
    /// with the artifact). The parse op refuses such a table.
    pub fn reduce_loop(&self) -> Option<ReduceLoop> {
        self.reduce_loop
    }

    /// The default-reduction-compressed table.
    pub fn compressed(&self) -> &CompressedTable {
        &self.compressed
    }

    /// Estimated resident bytes (cache accounting unit).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_a_grammar_end_to_end() {
        let a = CompiledArtifact::compile(
            "e : e \"+\" t | t ; t : \"x\" ;",
            GrammarFormat::Native,
            7,
            &Parallelism::sequential(),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), 7);
        assert_eq!(a.adequacy().lalr_conflicts, 0);
        assert!(a.table().state_count() > 4);
        assert!(a.approx_bytes() > 0);
        assert!(a.grammar().is_some() && a.lr0().is_some() && a.lookaheads().is_some());
    }

    #[test]
    fn bad_grammar_is_a_structured_error() {
        let err = CompiledArtifact::compile(
            "e : : ;",
            GrammarFormat::Native,
            0,
            &Parallelism::sequential(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "bad_grammar");
    }

    #[test]
    fn yacc_format_is_supported() {
        let a = CompiledArtifact::compile(
            "%token NUM\n%%\ne : e '+' NUM | NUM ;\n",
            GrammarFormat::Yacc,
            0,
            &Parallelism::sequential(),
        )
        .unwrap();
        assert!(a.terminal_count() >= 2);
    }

    #[test]
    fn bigger_grammars_estimate_bigger() {
        let small = CompiledArtifact::compile(
            "s : \"a\" ;",
            GrammarFormat::Native,
            0,
            &Parallelism::sequential(),
        )
        .unwrap();
        let big = CompiledArtifact::compile(
            "e : e \"+\" t | e \"-\" t | t ; t : t \"*\" f | t \"/\" f | f ; \
             f : \"(\" e \")\" | \"id\" | \"num\" ;",
            GrammarFormat::Native,
            0,
            &Parallelism::sequential(),
        )
        .unwrap();
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn record_round_trip_serves_identical_summaries_and_tables() {
        let a = CompiledArtifact::compile(
            "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"x\" ;",
            GrammarFormat::Native,
            0x5_1337,
            &Parallelism::sequential(),
        )
        .unwrap();
        let record = a.to_record("%key native\n...");
        let b = CompiledArtifact::from_record(record);
        assert_eq!(b.fingerprint(), a.fingerprint());
        assert_eq!(b.state_count(), a.state_count());
        assert_eq!(b.production_count(), a.production_count());
        assert_eq!(b.terminal_count(), a.terminal_count());
        assert_eq!(b.adequacy(), a.adequacy());
        assert_eq!(b.relation_stats(), a.relation_stats());
        assert_eq!(b.table(), a.table());
        assert_eq!(b.compressed(), a.compressed());
        assert_eq!(b.approx_bytes(), a.approx_bytes());
        assert!(b.grammar().is_none(), "store loads carry no intermediates");
    }
}
