//! The on-disk artifact format, version 4: a versioned header, a
//! section directory, and checksummed sections, little-endian
//! throughout.
//!
//! ```text
//! [ header: 64 bytes                                     ]
//!   magic "LALRSTOR" · version u32 · header_len u32
//!   total_len u64 · fingerprint u64 · checksum u64
//!   section_count u32 · pad
//! [ section table: section_count × 24 bytes              ]
//!   kind u32 · pad u32 · offset u64 · len u64   (offsets from file start)
//! [ sections, 8-byte aligned                              ]
//! ```
//!
//! The ACTION, GOTO and COMPRESSED tables are stored as sparse rows, one
//! per state: a `u64` entry count, then the entries in increasing column
//! order. An action entry is `terminal u32 · pad u32 · action u64` in
//! both ACTIONS and COMPRESSED, so one row codec serves both; a GOTO
//! entry is `nonterminal u32 · target u32`. Error cells and absent gotos
//! are not stored at all — an LALR table is almost all errors — and
//! decode scatters the rows into dense arrays prefilled with `Error` and
//! no-goto.
//!
//! The RESOLUTIONS section holds one `u64`: the number of conflict
//! resolutions the table build made. The decisions themselves are not
//! stored; `lalr_tables::resolutions` recomputes them from the grammar,
//! whose normalized text is the KEY section.
//!
//! META's last two words are where the table makes the parser
//! reduce forever, as (state, terminal), or `u64::MAX` twice for a table
//! where every run ends; the compile settles it once.
//!
//! The checksum (`file_checksum`) covers every byte of the file, with
//! the checksum field read as zero, so a torn, truncated, or bit-flipped
//! file is detected before any section is decoded. [`decode`] then
//! checks every index before it is written, so a well-checksummed but
//! malformed file is rejected too, never handed to a parse driver.

use lalr_core::{GrammarClass, MethodAdequacy, RelationStats};
use lalr_digraph::DigraphStats;
use lalr_tables::{Action, CompressedTable, ParseTable, ProductionInfo};

/// File magic: 8 bytes at offset 0.
pub const MAGIC: [u8; 8] = *b"LALRSTOR";
/// Current format version. Readers reject anything else, so a file from
/// an older release reads as corrupt and is recompiled and republished.
/// Version 4 adds the reduce-loop words to META, and version 3 records
/// hold the symbol names of grammar readers that mangled non-ASCII
/// names (`é` read as `Ã©`).
pub const FORMAT_VERSION: u32 = 4;
/// Fixed header size.
pub const HEADER_LEN: usize = 64;

const SECTION_ENTRY_LEN: usize = 24;
/// A sparse row's header: its `u64` entry count.
const ROW_HEADER_LEN: usize = 8;
/// One ACTIONS/COMPRESSED entry: terminal u32, pad u32, action u64.
const ACTION_ENTRY_LEN: usize = 16;
/// One GOTOS entry: nonterminal u32, target u32.
const GOTO_ENTRY_LEN: usize = 8;
/// An absent dense GOTO cell (see [`ParseTable::gotos_raw`]).
const NO_GOTO: u32 = u32::MAX;
/// META's reduce-loop words for a table without one.
const NO_LOOP: u64 = u64::MAX;

/// Section kinds (the `kind` field of a section-table entry).
mod kind {
    pub const KEY: u32 = 1;
    pub const META: u32 = 2;
    pub const ACTIONS: u32 = 3;
    pub const GOTOS: u32 = 4;
    pub const PRODUCTIONS: u32 = 5;
    pub const TERMINAL_NAMES: u32 = 6;
    pub const NONTERMINAL_NAMES: u32 = 7;
    pub const RESOLUTIONS: u32 = 8;
    pub const COMPRESSED: u32 = 9;
}

/// Everything the service needs to serve `compile`, `classify`,
/// `table`, and `parse` for a grammar without recompiling it — the
/// store's unit of exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactRecord {
    /// Content fingerprint (the cache key hash).
    pub fingerprint: u64,
    /// The full normalized cache key, for collision confirmation.
    pub key: String,
    /// LR(0) state count.
    pub states: u32,
    /// Grammar production count.
    pub productions: u32,
    /// Grammar terminal count.
    pub terminals: u32,
    /// Estimated resident bytes of the in-memory artifact.
    pub approx_bytes: u64,
    /// Per-method conflict counts and the resulting classification.
    pub adequacy: MethodAdequacy,
    /// Sizes of the `reads`/`includes`/`lookback` relations.
    pub relations: RelationStats,
    /// Digraph traversal statistics for `Read`.
    pub reads: DigraphStats,
    /// Digraph traversal statistics for `Follow` (`includes`).
    pub includes: DigraphStats,
    /// The dense ACTION/GOTO table.
    pub table: ParseTable,
    /// The row-compressed table.
    pub compressed: CompressedTable,
    /// Where the table makes the parser reduce forever, as
    /// (state, look-ahead terminal), found at compile time; a parse
    /// against such a table is refused.
    pub reduce_loop: Option<(u32, u32)>,
}

/// Byte offset of the checksum field inside the header.
const CHECKSUM_OFFSET: usize = 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Independent lanes; a block is one 8-byte word per lane.
const LANES: usize = 4;
const BLOCK: usize = LANES * 8;

/// The file checksum: an FNV-style multiply-xor over the file as
/// little-endian 8-byte words, dealt round-robin to four independent
/// lanes so the multiplies pipeline. The checksum field is read as zero,
/// the tail is zero-padded to a whole block, and the lanes and then the
/// file length are folded together last, so padding never aliases real
/// zero bytes.
///
/// Every step `h ← (h ^ w) · P` with an odd `P` is a bijection of `h`
/// for a fixed `w` and of `w` for a fixed `h`, and the final fold chains
/// the lanes the same way. A change confined to one aligned 8-byte word
/// therefore changes exactly one lane's value and always changes the
/// result — in particular every single-byte flip is detected.
///
/// `bytes` must be at least [`HEADER_LEN`] long.
fn file_checksum(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| FNV_OFFSET ^ i as u64);
    let mut absorb = |blocks: &[u8]| {
        for block in blocks.chunks_exact(BLOCK) {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
            }
        }
    };
    // HEADER_LEN is a whole number of blocks, so the body's words land
    // in the same lanes as they would without the zeroed copy.
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    header[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
    absorb(&header);
    let body = &bytes[HEADER_LEN..];
    let whole = body.len() - body.len() % BLOCK;
    absorb(&body[..whole]);
    let mut tail = [0u8; BLOCK];
    tail[..body.len() - whole].copy_from_slice(&body[whole..]);
    absorb(&tail);
    let h = lanes
        .iter()
        .fold(FNV_OFFSET, |h, &lane| (h ^ lane).wrapping_mul(FNV_PRIME));
    (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------- encode

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn align8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }
    /// One sparse row: the entry count, then each entry as `put` writes it.
    fn row<E>(&mut self, entries: impl IntoIterator<Item = E>, put: impl Fn(&mut Writer, E)) {
        let count_at = self.buf.len();
        self.u64(0);
        let mut n = 0u64;
        for e in entries {
            put(self, e);
            n += 1;
        }
        self.buf[count_at..count_at + 8].copy_from_slice(&n.to_le_bytes());
    }
    /// One sparse action row (ACTIONS and COMPRESSED share the layout).
    fn action_row(&mut self, entries: impl IntoIterator<Item = (u32, Action)>) {
        self.row(entries, |w, (t, a)| {
            w.u32(t);
            w.u32(0);
            w.u64(encode_action(a));
        });
    }
}

fn encode_action(a: Action) -> u64 {
    match a {
        Action::Error => 0,
        Action::Shift(s) => (1u64 << 32) | u64::from(s),
        Action::Reduce(p) => (2u64 << 32) | u64::from(p),
        Action::Accept => 3u64 << 32,
    }
}

fn class_tag(c: GrammarClass) -> u64 {
    match c {
        GrammarClass::Lr0 => 0,
        GrammarClass::Slr1 => 1,
        GrammarClass::Lalr1 => 2,
        GrammarClass::Lr1 => 3,
        GrammarClass::NotLr1 => 4,
    }
}

fn class_of(tag: u64) -> Option<GrammarClass> {
    Some(match tag {
        0 => GrammarClass::Lr0,
        1 => GrammarClass::Slr1,
        2 => GrammarClass::Lalr1,
        3 => GrammarClass::Lr1,
        4 => GrammarClass::NotLr1,
        _ => return None,
    })
}

/// Serializes a record into the on-disk byte format.
pub fn encode(record: &ArtifactRecord) -> Vec<u8> {
    // Build each section body first.
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();

    sections.push((kind::KEY, record.key.as_bytes().to_vec()));

    let table = &record.table;
    let mut meta = Writer::new();
    let a = &record.adequacy;
    let r = &record.relations;
    for v in [
        u64::from(record.states),
        u64::from(record.productions),
        u64::from(record.terminals),
        u64::from(table.nonterminal_count()),
        record.approx_bytes,
        a.lr0_conflicts as u64,
        a.slr_conflicts as u64,
        a.nqlalr_conflicts as u64,
        a.lalr_conflicts as u64,
        a.lr1_conflicts as u64,
        u64::from(a.not_lr_k),
        class_tag(a.class),
        r.nt_transitions as u64,
        r.reads_edges as u64,
        r.includes_edges as u64,
        r.lookback_edges as u64,
        r.reads_nontrivial_sccs as u64,
        r.includes_nontrivial_sccs as u64,
        r.includes_max_scc as u64,
    ] {
        meta.u64(v);
    }
    for d in [&record.reads, &record.includes] {
        meta.u64(d.scc_count as u64);
        meta.u64(d.nontrivial_sccs as u64);
        meta.u64(d.max_scc_size as u64);
        meta.u64(d.cyclic_nodes as u64);
    }
    let (loop_state, loop_terminal) = record
        .reduce_loop
        .map_or((NO_LOOP, NO_LOOP), |(s, t)| (u64::from(s), u64::from(t)));
    meta.u64(loop_state);
    meta.u64(loop_terminal);
    sections.push((kind::META, meta.buf));

    let states = table.state_count() as usize;
    let width = table.terminal_count() as usize;
    let mut actions = Writer::new();
    for s in 0..states {
        let row = &table.actions_raw()[s * width..(s + 1) * width];
        actions.action_row(
            (0u32..)
                .zip(row.iter().copied())
                .filter(|&(_, a)| !a.is_error()),
        );
    }
    sections.push((kind::ACTIONS, actions.buf));

    let width = table.nonterminal_count() as usize;
    let mut gotos = Writer::new();
    for s in 0..states {
        let row = &table.gotos_raw()[s * width..(s + 1) * width];
        gotos.row(
            (0u32..)
                .zip(row.iter().copied())
                .filter(|&(_, g)| g != NO_GOTO),
            |w, (n, g)| {
                w.u32(n);
                w.u32(g);
            },
        );
    }
    sections.push((kind::GOTOS, gotos.buf));

    let mut prods = Writer::new();
    prods.u64(table.production_count() as u64);
    for p in table.production_infos() {
        prods.u32(p.lhs);
        prods.u32(p.rhs_len);
        prods.str(&p.display);
    }
    sections.push((kind::PRODUCTIONS, prods.buf));

    for (k, names) in [
        (kind::TERMINAL_NAMES, table.terminal_names()),
        (kind::NONTERMINAL_NAMES, table.nonterminal_names()),
    ] {
        let mut w = Writer::new();
        w.u64(names.len() as u64);
        for n in names {
            w.str(n);
        }
        sections.push((k, w.buf));
    }

    let mut res = Writer::new();
    res.u64(table.resolution_count() as u64);
    sections.push((kind::RESOLUTIONS, res.buf));

    let mut comp = Writer::new();
    comp.u64(record.compressed.state_count() as u64);
    comp.u64(u64::from(record.compressed.terminal_count()));
    for &d in record.compressed.defaults_raw() {
        comp.u64(encode_action(d));
    }
    for row in record.compressed.rows_raw() {
        comp.action_row(row.iter().copied());
    }
    sections.push((kind::COMPRESSED, comp.buf));

    // Lay out: header | section table | aligned section bodies.
    let table_len = sections.len() * SECTION_ENTRY_LEN;
    let mut offset = HEADER_LEN + table_len;
    let mut entries = Writer::new();
    for (k, body) in &sections {
        offset = (offset + 7) & !7;
        entries.u32(*k);
        entries.u32(0);
        entries.u64(offset as u64);
        entries.u64(body.len() as u64);
        offset += body.len();
    }

    let mut payload = Writer::new();
    payload.bytes(&entries.buf);
    for (_, body) in &sections {
        payload.align8();
        payload.bytes(body);
    }
    // Alignment inside `payload` is relative to the payload start;
    // HEADER_LEN is a multiple of 8, so file offsets line up too.
    let total_len = (HEADER_LEN + payload.buf.len()) as u64;

    let mut out = Writer::new();
    out.bytes(&MAGIC);
    out.u32(FORMAT_VERSION);
    out.u32(HEADER_LEN as u32);
    out.u64(total_len);
    out.u64(record.fingerprint);
    out.u64(0); // checksum placeholder, patched below
    out.u32(sections.len() as u32);
    out.u32(0);
    while out.buf.len() < HEADER_LEN {
        out.buf.push(0);
    }
    out.bytes(&payload.buf);
    let checksum = file_checksum(&out.buf);
    out.buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    debug_assert_eq!(out.buf.len() as u64, total_len);
    out.buf
}

// ---------------------------------------------------------------- decode

/// Why a decode failed. Everything maps to "corrupt" for callers; the
/// detail string aids `store verify` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FormatError {}

fn err<T>(msg: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError(msg.into()))
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.buf.len() - self.pos < n {
            return err("section truncated");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A table dimension: stored as a `u64`, but must fit the `u32`
    /// indices the tables use.
    fn dim(&mut self) -> Result<u32, FormatError> {
        u32::try_from(self.u64()?).map_err(|_| FormatError("dimension exceeds u32".into()))
    }
    fn str(&mut self) -> Result<String, FormatError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| FormatError("string too long".into()))?;
        if len > self.buf.len() - self.pos {
            return err("string runs past section");
        }
        match std::str::from_utf8(self.take(len)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => err("string is not UTF-8"),
        }
    }
    fn count(&mut self, width: usize) -> Result<usize, FormatError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| FormatError("count overflows".into()))?;
        // A count must be satisfiable by the remaining bytes — rejects
        // absurd values before any allocation.
        if n.checked_mul(width)
            .is_none_or(|total| total > self.buf.len() - self.pos)
        {
            return err("count runs past section");
        }
        Ok(n)
    }
    /// The next sparse row: its entry count, then its entries as
    /// `width`-byte chunks, read in bulk rather than field by field.
    fn row(&mut self, width: usize) -> Result<std::slice::ChunksExact<'a, u8>, FormatError> {
        let n = self.count(width)?;
        Ok(self.take(n * width)?.chunks_exact(width))
    }
    /// Requires the section to be fully consumed.
    fn end(&self) -> Result<(), FormatError> {
        if self.pos != self.buf.len() {
            return err("trailing bytes at the end of a section");
        }
        Ok(())
    }
}

/// The little-endian `u32` at `at` in an entry chunk.
fn le_u32(entry: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(entry[at..at + 4].try_into().expect("4-byte field"))
}

/// The little-endian `u64` at `at` in an entry chunk.
fn le_u64(entry: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(entry[at..at + 8].try_into().expect("8-byte field"))
}

/// The dimensions every decoded index is checked against.
struct Dims {
    states: u32,
    productions: u32,
    terminals: u32,
}

impl Dims {
    /// Decodes an action whose Shift target or Reduce production is in
    /// range. There is one bound per tag, so the check does not branch
    /// on the action kind: Error and Accept carry 0, and an unknown tag
    /// admits nothing.
    fn action(&self, raw: u64) -> Result<Action, FormatError> {
        let (tag, arg) = (raw >> 32, raw as u32);
        let bound = match tag {
            0 | 3 => 1,
            1 => self.states,
            2 => self.productions,
            _ => 0,
        };
        if arg >= bound {
            return err("invalid or out-of-range action");
        }
        Ok(match tag {
            0 => Action::Error,
            1 => Action::Shift(arg),
            2 => Action::Reduce(arg),
            _ => Action::Accept,
        })
    }

    /// Hands each entry of one sparse action row to `put`, after
    /// checking that its terminal is in range and above the previous
    /// one's, and that its action is a non-error action in range.
    fn action_row(
        &self,
        entries: std::slice::ChunksExact<'_, u8>,
        mut put: impl FnMut(u32, Action),
    ) -> Result<(), FormatError> {
        let mut next = 0;
        for e in entries {
            let t = le_u32(e, 0);
            let a = self.action(le_u64(e, 8))?;
            if t < next || t >= self.terminals || a.is_error() {
                return err("action row entry out of order or range");
            }
            put(t, a);
            next = t + 1;
        }
        Ok(())
    }
}

/// Parsed header + section directory, produced by [`inspect`].
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// The fingerprint the file claims.
    pub fingerprint: u64,
    /// Total file length according to the header.
    pub total_len: u64,
    /// Payload checksum stored in the header.
    pub checksum: u64,
    /// `(kind, offset, len)` per section.
    pub sections: Vec<(u32, u64, u64)>,
}

/// Validates magic, version, length, and checksum, returning the
/// section directory. This is the integrity gate: every load and every
/// `store verify` goes through it before touching section bytes.
pub fn inspect(bytes: &[u8]) -> Result<FileInfo, FormatError> {
    if bytes.len() < HEADER_LEN {
        return err(format!("file too short ({} bytes)", bytes.len()));
    }
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return err("bad magic");
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return err(format!("unsupported format version {version}"));
    }
    let header_len = r.u32()?;
    if header_len as usize != HEADER_LEN {
        return err(format!("unexpected header length {header_len}"));
    }
    let total_len = r.u64()?;
    if total_len != bytes.len() as u64 {
        return err(format!(
            "length mismatch: header says {total_len}, file has {}",
            bytes.len()
        ));
    }
    let fingerprint = r.u64()?;
    let checksum = r.u64()?;
    let section_count = r.u32()?;
    let actual = file_checksum(bytes);
    if actual != checksum {
        return err(format!(
            "checksum mismatch: header {checksum:#018x}, file {actual:#018x}"
        ));
    }
    let mut r = Reader::new(bytes);
    r.pos = HEADER_LEN;
    let mut sections = Vec::new();
    for _ in 0..section_count {
        let k = r.u32()?;
        let _pad = r.u32()?;
        let offset = r.u64()?;
        let len = r.u64()?;
        if offset.checked_add(len).is_none_or(|end| end > total_len) {
            return err("section out of bounds");
        }
        sections.push((k, offset, len));
    }
    Ok(FileInfo {
        fingerprint,
        total_len,
        checksum,
        sections,
    })
}

fn section<'a>(bytes: &'a [u8], info: &FileInfo, k: u32) -> Result<&'a [u8], FormatError> {
    for &(kk, offset, len) in &info.sections {
        if kk == k {
            return Ok(&bytes[offset as usize..(offset + len) as usize]);
        }
    }
    err(format!("missing section kind {k}"))
}

/// Decodes a full record from a file's bytes, after [`inspect`].
///
/// Every index is checked before it is written, so a malformed file —
/// even one whose checksum was recomputed over it — decodes as an
/// error, never as a record whose tables a driver could index out of
/// range:
///
/// * before any table allocation, META's `states` must be backed by a
///   row header in ACTIONS and in GOTOS and equal COMPRESSED's state
///   count, and `terminals` and `nonterminals` must equal the counts of
///   the two name sections — which bounds the dense arrays by a
///   function of the file length;
/// * ACTIONS and COMPRESSED entries: terminal in range and strictly
///   increasing within the row, no explicit `Error`, Shift target and
///   Reduce production in range;
/// * GOTOS entries: nonterminal in range and strictly increasing,
///   target in range;
/// * compressed defaults and production left-hand sides are in range
///   too, and the resolution count fits a `usize` and is all of its
///   section.
pub fn decode(bytes: &[u8]) -> Result<ArtifactRecord, FormatError> {
    let info = inspect(bytes)?;
    let sec = |k| section(bytes, &info, k);

    let key = match std::str::from_utf8(sec(kind::KEY)?) {
        Ok(s) => s.to_string(),
        Err(_) => return err("key is not UTF-8"),
    };

    let mut m = Reader::new(sec(kind::META)?);
    let states = m.dim()?;
    let productions = m.dim()?;
    let terminals = m.dim()?;
    let nonterminals = m.dim()?;
    let dims = Dims {
        states,
        productions,
        terminals,
    };
    let approx_bytes = m.u64()?;
    let adequacy = MethodAdequacy {
        lr0_conflicts: m.u64()? as usize,
        slr_conflicts: m.u64()? as usize,
        nqlalr_conflicts: m.u64()? as usize,
        lalr_conflicts: m.u64()? as usize,
        lr1_conflicts: m.u64()? as usize,
        not_lr_k: m.u64()? != 0,
        class: class_of(m.u64()?).ok_or_else(|| FormatError("invalid grammar class".into()))?,
    };
    let relations = RelationStats {
        nt_transitions: m.u64()? as usize,
        reads_edges: m.u64()? as usize,
        includes_edges: m.u64()? as usize,
        lookback_edges: m.u64()? as usize,
        reads_nontrivial_sccs: m.u64()? as usize,
        includes_nontrivial_sccs: m.u64()? as usize,
        includes_max_scc: m.u64()? as usize,
    };
    let digraph = |m: &mut Reader| -> Result<DigraphStats, FormatError> {
        Ok(DigraphStats {
            scc_count: m.u64()? as usize,
            nontrivial_sccs: m.u64()? as usize,
            max_scc_size: m.u64()? as usize,
            cyclic_nodes: m.u64()? as usize,
        })
    };
    let reads = digraph(&mut m)?;
    let includes = digraph(&mut m)?;
    let reduce_loop = match (m.u64()?, m.u64()?) {
        (NO_LOOP, NO_LOOP) => None,
        (state, terminal) if state < states as u64 && terminal < terminals as u64 => {
            Some((state as u32, terminal as u32))
        }
        _ => return err("reduce loop out of range"),
    };

    // Everything whose length a count in the file sets is bounded by its
    // own section's bytes (`Reader::count`); the names also pin
    // `terminals` and `nonterminals`.
    let mut r = Reader::new(sec(kind::PRODUCTIONS)?);
    let n = r.count(16)?;
    if n != productions as usize {
        return err("production count disagrees with META");
    }
    let mut prod_infos = Vec::with_capacity(n);
    for _ in 0..n {
        let lhs = r.u32()?;
        if lhs >= nonterminals {
            return err("production left-hand side out of range");
        }
        let rhs_len = r.u32()?;
        let display = r.str()?;
        prod_infos.push(ProductionInfo {
            lhs,
            rhs_len,
            display,
        });
    }

    let names = |k: u32, expect: u32| -> Result<Vec<String>, FormatError> {
        let mut r = Reader::new(sec(k)?);
        let n = r.count(8)?;
        if n != expect as usize {
            return err("name count disagrees with META");
        }
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(r.str()?);
        }
        Ok(names)
    };
    let terminal_names = names(kind::TERMINAL_NAMES, terminals)?;
    let nonterminal_names = names(kind::NONTERMINAL_NAMES, nonterminals)?;

    let mut r = Reader::new(sec(kind::RESOLUTIONS)?);
    let resolution_count =
        usize::try_from(r.u64()?).map_err(|_| FormatError("resolution count overflows".into()))?;
    r.end()?;

    // `states` must be backed by the row sections before the dense
    // arrays are allocated.
    let mut actions_rows = Reader::new(sec(kind::ACTIONS)?);
    let mut goto_rows = Reader::new(sec(kind::GOTOS)?);
    let mut comp = Reader::new(sec(kind::COMPRESSED)?);
    let rows = states as usize;
    if rows > actions_rows.buf.len() / ROW_HEADER_LEN
        || rows > goto_rows.buf.len() / ROW_HEADER_LEN
        || comp.u64()? != u64::from(states)
    {
        return err("state count is not backed by the table sections");
    }
    let (Some(action_cells), Some(goto_cells)) = (
        states.checked_mul(terminals),
        states.checked_mul(nonterminals),
    ) else {
        return err("table dimensions overflow");
    };

    let width = terminals as usize;
    let mut actions = vec![Action::Error; action_cells as usize];
    for s in 0..rows {
        let cells = &mut actions[s * width..(s + 1) * width];
        let entries = actions_rows.row(ACTION_ENTRY_LEN)?;
        dims.action_row(entries, |t, a| cells[t as usize] = a)?;
    }
    actions_rows.end()?;

    let width = nonterminals as usize;
    let mut gotos = vec![NO_GOTO; goto_cells as usize];
    for s in 0..rows {
        let cells = &mut gotos[s * width..(s + 1) * width];
        let mut next = 0;
        for e in goto_rows.row(GOTO_ENTRY_LEN)? {
            let (n, target) = (le_u32(e, 0), le_u32(e, 4));
            if n < next || n >= nonterminals || target >= states {
                return err("goto entry out of order or range");
            }
            cells[n as usize] = target;
            next = n + 1;
        }
    }
    goto_rows.end()?;

    if comp.u64()? != u64::from(terminals) {
        return err("compressed terminal count disagrees with META");
    }
    let mut defaults = Vec::with_capacity(rows);
    for d in comp.take(rows * 8)?.chunks_exact(8) {
        defaults.push(dims.action(le_u64(d, 0))?);
    }
    let mut comp_rows = Vec::with_capacity(rows);
    for _ in 0..rows {
        let entries = comp.row(ACTION_ENTRY_LEN)?;
        let mut row = Vec::with_capacity(entries.len());
        dims.action_row(entries, |t, a| row.push((t, a)))?;
        comp_rows.push(row);
    }
    comp.end()?;

    let table = ParseTable::from_raw_parts(
        actions,
        gotos,
        states,
        terminals,
        nonterminals,
        prod_infos,
        terminal_names,
        nonterminal_names,
        resolution_count,
    );
    let compressed = CompressedTable::from_raw_parts(comp_rows, defaults, terminals);

    Ok(ArtifactRecord {
        fingerprint: info.fingerprint,
        key,
        states,
        productions,
        terminals,
        approx_bytes,
        adequacy,
        relations,
        reads,
        includes,
        table,
        compressed,
        reduce_loop,
    })
}

/// Reads just the KEY section (after full integrity validation) — what
/// collision confirmation needs without decoding the tables.
pub fn decode_key(bytes: &[u8]) -> Result<String, FormatError> {
    let info = inspect(bytes)?;
    match std::str::from_utf8(section(bytes, &info, kind::KEY)?) {
        Ok(s) => Ok(s.to_string()),
        Err(_) => err("key is not UTF-8"),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lalr_automata::Lr0Automaton;
    use lalr_core::LalrAnalysis;
    use lalr_grammar::{parse_grammar, Grammar};
    use lalr_tables::{build_table, TableOptions};

    pub(crate) fn sample_record(src: &str, key: &str, fingerprint: u64) -> ArtifactRecord {
        record_of(&parse_grammar(src).unwrap(), key, fingerprint)
    }

    fn record_of(g: &Grammar, key: &str, fingerprint: u64) -> ArtifactRecord {
        let lr0 = Lr0Automaton::build(g);
        let analysis = LalrAnalysis::compute(g, &lr0);
        let adequacy = lalr_core::classify(g);
        let relations = lalr_core::Relations::build(g, &lr0).stats();
        let table = build_table(g, &lr0, analysis.lookaheads(), TableOptions::default());
        let compressed = CompressedTable::from_dense(&table);
        ArtifactRecord {
            fingerprint,
            key: key.to_string(),
            states: table.state_count(),
            productions: table.production_count() as u32,
            terminals: table.terminal_count(),
            approx_bytes: 4242,
            adequacy,
            relations,
            reads: DigraphStats {
                scc_count: 3,
                nontrivial_sccs: 0,
                max_scc_size: 1,
                cyclic_nodes: 0,
            },
            includes: DigraphStats {
                scc_count: 3,
                nontrivial_sccs: 1,
                max_scc_size: 2,
                cyclic_nodes: 2,
            },
            table,
            compressed,
            reduce_loop: None,
        }
    }

    /// Re-stamps `total_len` (header bytes 16..24) and the checksum
    /// after a mutation, so the mutant gets past [`inspect`] to the
    /// section decoders.
    fn reseal(bytes: &mut [u8]) {
        if bytes.len() < HEADER_LEN {
            return;
        }
        let len = bytes.len() as u64;
        bytes[16..24].copy_from_slice(&len.to_le_bytes());
        let sum = file_checksum(bytes);
        bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// Every index a decoded record can hand a parse driver is in range.
    fn assert_indices_in_range(rec: &ArtifactRecord) {
        let t = &rec.table;
        let (states, terminals) = (t.state_count(), t.terminal_count());
        let productions = t.production_count() as u32;
        let in_range = |a: Action| match a {
            Action::Shift(s) => s < states,
            Action::Reduce(p) => p < productions,
            Action::Accept | Action::Error => true,
        };
        assert_eq!(rec.states, states);
        assert_eq!(rec.terminals, terminals);
        assert_eq!(rec.productions, productions);
        assert_eq!(t.actions_raw().len(), (states * terminals) as usize);
        assert!(t.actions_raw().iter().all(|&a| in_range(a)));
        assert_eq!(
            t.gotos_raw().len(),
            (states * t.nonterminal_count()) as usize
        );
        assert!(t.gotos_raw().iter().all(|&g| g == NO_GOTO || g < states));
        assert!(t
            .production_infos()
            .iter()
            .all(|p| p.lhs < t.nonterminal_count()));
        assert_eq!(t.terminal_names().len(), terminals as usize);
        let c = &rec.compressed;
        assert_eq!(c.state_count(), states as usize);
        assert_eq!(c.terminal_count(), terminals);
        assert!(c.defaults_raw().iter().all(|&d| in_range(d)));
        for row in c.rows_raw() {
            assert!(row.iter().all(|&(t, a)| t < terminals && in_range(a)));
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let rec = sample_record(
            "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"x\" ;",
            "%key native\ne : ...",
            0xDEAD_BEEF_0123_4567,
        );
        let bytes = encode(&rec);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, rec);
        // A reduce loop round-trips; one outside the table is corrupt.
        let mut looping = rec.clone();
        looping.reduce_loop = Some((rec.states - 1, rec.terminals - 1));
        assert_eq!(decode(&encode(&looping)).unwrap(), looping);
        looping.reduce_loop = Some((rec.states, 0));
        assert!(decode(&encode(&looping)).is_err());

        // Every corpus grammar, and the two largest synthetic families
        // the store sees.
        let mut grammars: Vec<(String, Grammar)> = lalr_corpus::all_entries()
            .into_iter()
            .map(|e| (e.name.to_string(), e.grammar()))
            .collect();
        grammars.push((
            "expr_ladder(80)".into(),
            lalr_corpus::synthetic::expr_ladder(80),
        ));
        grammars.push((
            "wide_forest(100)".into(),
            lalr_corpus::synthetic::wide_forest(100),
        ));
        for (name, g) in &grammars {
            let rec = record_of(g, name, 0x5EED);
            let back = decode(&encode(&rec)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(back == rec, "{name}: the round trip changed a field");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let rec = sample_record("s : \"a\" s | \"b\" ;", "k", 7);
        let bytes = encode(&rec);
        // Chop at a spread of lengths including mid-header and mid-section.
        for cut in [
            0,
            1,
            7,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_harmless() {
        let rec = sample_record("s : \"a\" ;", "key-text", 99);
        let bytes = encode(&rec);
        // Flipping any payload byte must be caught by the checksum;
        // flipping header bytes must be caught by magic/length/checksum
        // comparisons. (The checksum field itself mismatches the
        // payload when flipped.)
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x40;
            match decode(&copy) {
                Err(_) => {}
                Ok(back) => {
                    // A flip inside header padding doesn't corrupt data.
                    assert_eq!(back, rec, "undetected corruption at byte {i}");
                }
            }
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let rec = sample_record("s : \"a\" ;", "k", 1);
        let mut bytes = encode(&rec);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let e = decode(&bytes).unwrap_err();
        assert!(e.0.contains("version"), "{e}");
    }

    #[test]
    fn compressed_lookup_survives_the_round_trip() {
        let rec = sample_record("e : e \"+\" t | t ; t : \"x\" ;", "k", 5);
        let back = decode(&encode(&rec)).unwrap();
        for s in 0..rec.table.state_count() {
            for t in 0..rec.table.terminal_count() {
                assert_eq!(rec.table.action(s, t), back.table.action(s, t));
                assert_eq!(rec.compressed.action(s, t), back.compressed.action(s, t));
            }
        }
    }

    #[test]
    fn dimensions_no_section_backs_are_rejected() {
        let rec = sample_record("e : e \"+\" t | t ; t : \"x\" ;", "k", 5);
        let bytes = encode(&rec);
        let info = inspect(&bytes).unwrap();
        let (_, meta, _) = info.sections.iter().find(|s| s.0 == kind::META).unwrap();
        // META's first four words: states, productions, terminals,
        // nonterminals.
        for (field, claim) in [
            (0, u64::from(rec.states) + 1),
            (0, 1 << 20),
            (0, 1 << 40),
            (1, u64::from(rec.productions) + 1),
            (2, u64::from(rec.terminals) + 1),
            (3, 1 << 20),
        ] {
            let mut copy = bytes.clone();
            let at = *meta as usize + 8 * field;
            copy[at..at + 8].copy_from_slice(&claim.to_le_bytes());
            reseal(&mut copy);
            assert!(decode(&copy).is_err(), "META word {field} = {claim}");
        }
    }

    #[test]
    fn resealed_mutants_decode_to_errors_or_in_range_records() {
        // The expression grammar, one with precedence resolutions, and
        // one with more than 128 terminals.
        let wide: Vec<String> = (0..140).map(|i| format!("\"t{i}\"")).collect();
        let sources = [
            "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"x\" ;".to_string(),
            "%left \"+\" \"-\"\n%left \"*\"\n%nonassoc \"<\"\n\
             e : e \"+\" e | e \"-\" e | e \"*\" e | e \"<\" e | \"(\" e \")\" | \"x\" ;"
                .to_string(),
            format!("s : {} | \"t0\" s ;", wide.join(" ")),
        ];
        let records: Vec<ArtifactRecord> = sources
            .iter()
            .map(|src| sample_record(src, src, 11))
            .collect();
        assert!(records[1].table.resolution_count() > 0);
        assert!(records[2].terminals > 128);
        let encoded: Vec<Vec<u8>> = records.iter().map(encode).collect();

        // xorshift64*: a seeded, dependency-free mutation stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % bound
        };
        let (mut rejected, mut decoded) = (0, 0);
        for case in 0..21_000 {
            let mut bytes = encoded[case % encoded.len()].clone();
            match next(10) {
                0 => bytes.truncate(next(bytes.len())),
                1 => {
                    for _ in 0..1 + next(24) {
                        bytes.push(next(256) as u8);
                    }
                }
                _ => {
                    for _ in 0..1 + next(3) {
                        let at = next(bytes.len());
                        // Small values hit counts, tags and indices.
                        bytes[at] = (if next(2) == 0 { next(7) } else { next(256) }) as u8;
                    }
                }
            }
            reseal(&mut bytes);
            match decode(&bytes) {
                Ok(rec) => {
                    assert_indices_in_range(&rec);
                    decoded += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes must actually occur for the property to mean
        // anything.
        assert!(rejected > 1_000 && decoded > 1_000, "{rejected}/{decoded}");
    }
}
