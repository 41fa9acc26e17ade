//! Parse trees, stored as a flat postorder forest.

use std::fmt;

use lalr_tables::ParseTable;

use crate::token::Token;

/// Tags a child id as an interior node; an untagged id is a leaf.
const NODE: u32 = 1 << 31;

/// One reduction: what it produced, its children (a range of the
/// tree's child-id array), and the leaf and node totals of its subtree,
/// summed when the reduction happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    nonterminal: u32,
    production: u32,
    first: u32,
    end: u32,
    leaves: u32,
    nodes: u32,
}

/// A concrete parse tree: interior nodes are reductions, leaves are
/// tokens.
///
/// An LR parse emits the reverse rightmost derivation, a postorder
/// sequence of reductions, and the tree is stored in that shape: the
/// shifted tokens, one record per reduction in reduction order, and one
/// array of child ids that each record's children are a range of. Leaf
/// and node totals are summed as the reductions happen, so
/// [`leaf_count`](Self::leaf_count) and [`node_count`](Self::node_count)
/// read the root; dropping a tree frees a handful of `Vec`s.
///
/// A document's tree is as deep as its input is long (a right-recursive
/// list of `n` tokens nests `n` levels), so the walks —
/// [`to_sexpr`](Self::to_sexpr), [`height`](Self::height),
/// [`leaves`](Self::leaves) and
/// [`reverse_rightmost_derivation`](Self::reverse_rightmost_derivation) —
/// keep their path on a heap stack and need no native stack in
/// proportion to depth. Use [`root`](Self::root) to walk the tree
/// yourself.
///
/// When `error`-token recovery pops a subtree, its records stay in the
/// arrays unreferenced: every walk starts at the root, so they are never
/// seen, and `==` compares trees built by the same driver on the same
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTree<'a> {
    tokens: Vec<Token<'a>>,
    nodes: Vec<Record>,
    children: Vec<u32>,
    root: u32,
}

/// One event of a depth-first, left-to-right walk.
enum Visit<'t, 'a> {
    Leaf(&'t Token<'a>),
    Open(&'t Record),
    Close(&'t Record),
}

impl<'a> ParseTree<'a> {
    /// An empty forest with room for `tokens` leaves (at most 65,536; a
    /// larger input grows the arrays) and, as typical grammars reduce two
    /// or three times per token, twice as many nodes.
    pub(crate) fn with_capacity(tokens: usize) -> Self {
        let tokens = tokens.min(1 << 16);
        ParseTree {
            tokens: Vec::with_capacity(tokens),
            nodes: Vec::with_capacity(2 * tokens),
            children: Vec::with_capacity(3 * tokens),
            root: 0,
        }
    }

    /// The id the next leaf gets, or `None` when the forest already holds
    /// as many leaves as an id can name.
    pub(crate) fn next_leaf_id(&self) -> Option<u32> {
        u32::try_from(self.tokens.len()).ok().filter(|&i| i < NODE)
    }

    /// Adds the leaf [`next_leaf_id`](Self::next_leaf_id) named.
    pub(crate) fn push_leaf(&mut self, token: Token<'a>) {
        self.tokens.push(token);
    }

    /// Adds the node a reduction by `production` builds over `children`
    /// and returns its id, or `None` when the forest holds as many nodes
    /// as an id can name.
    pub(crate) fn push_node(
        &mut self,
        nonterminal: u32,
        production: u32,
        children: impl ExactSizeIterator<Item = u32>,
    ) -> Option<u32> {
        let index = u32::try_from(self.nodes.len()).ok().filter(|&i| i < NODE)?;
        let first = u32::try_from(self.children.len()).ok()?;
        let end = first.checked_add(u32::try_from(children.len()).ok()?)?;
        let (mut leaves, mut nodes) = (0u32, 1u32);
        for child in children {
            if child & NODE == 0 {
                leaves += 1;
            } else {
                let sub = &self.nodes[(child ^ NODE) as usize];
                leaves += sub.leaves;
                nodes += sub.nodes;
            }
            self.children.push(child);
        }
        self.nodes.push(Record {
            nonterminal,
            production,
            first,
            end,
            leaves,
            nodes,
        });
        Some(index | NODE)
    }

    /// Makes the subtree `root` the tree's root.
    pub(crate) fn set_root(&mut self, root: u32) {
        self.root = root;
    }

    fn subtree(&self, id: u32) -> Subtree<'_, 'a> {
        if id & NODE == 0 {
            Subtree::Leaf(&self.tokens[id as usize])
        } else {
            Subtree::Node(NodeView {
                tree: self,
                record: &self.nodes[(id ^ NODE) as usize],
            })
        }
    }

    /// The root, as a borrowed view to walk the tree from.
    pub fn root(&self) -> Subtree<'_, 'a> {
        self.subtree(self.root)
    }

    /// Visits the subtree under the root depth-first, left to right, with
    /// the open nodes' child cursors on a heap stack.
    fn visit<'t>(&'t self, mut visit: impl FnMut(Visit<'t, 'a>)) {
        let mut open: Vec<(&'t Record, u32)> = Vec::new();
        let mut id = self.root;
        loop {
            if id & NODE == 0 {
                visit(Visit::Leaf(&self.tokens[id as usize]));
            } else {
                let record = &self.nodes[(id ^ NODE) as usize];
                visit(Visit::Open(record));
                open.push((record, record.first));
            }
            // The next child of the innermost open node, closing the
            // nodes whose children are all visited.
            loop {
                let Some((record, cursor)) = open.last_mut() else {
                    return;
                };
                if *cursor < record.end {
                    id = self.children[*cursor as usize];
                    *cursor += 1;
                    break;
                }
                visit(Visit::Close(record));
                open.pop();
            }
        }
    }

    /// Number of token leaves.
    pub fn leaf_count(&self) -> usize {
        match self.root() {
            Subtree::Leaf(_) => 1,
            Subtree::Node(node) => node.leaf_count(),
        }
    }

    /// Number of interior nodes (= reductions performed).
    pub fn node_count(&self) -> usize {
        match self.root() {
            Subtree::Leaf(_) => 0,
            Subtree::Node(node) => node.node_count(),
        }
    }

    /// Height of the tree (a leaf has height 0).
    pub fn height(&self) -> usize {
        let (mut depth, mut height) = (0usize, 0usize);
        self.visit(|step| match step {
            Visit::Open(_) => {
                depth += 1;
                height = height.max(depth);
            }
            Visit::Close(_) => depth -= 1,
            Visit::Leaf(_) => {}
        });
        height
    }

    /// The leaves in order — the parsed token sequence (round-trip check).
    pub fn leaves(&self) -> Vec<&Token<'a>> {
        let mut leaves = Vec::with_capacity(self.leaf_count());
        self.visit(|step| {
            if let Visit::Leaf(token) = step {
                leaves.push(token);
            }
        });
        leaves
    }

    /// The *reverse rightmost derivation* this tree encodes — the sequence
    /// of production indices an LR parser emits (post-order, right-to-left
    /// children visited last). Replaying it backwards from the start
    /// symbol reproduces the input: the classic LR output convention.
    pub fn reverse_rightmost_derivation(&self) -> Vec<u32> {
        let mut productions = Vec::with_capacity(self.node_count());
        self.visit(|step| {
            if let Visit::Close(record) = step {
                productions.push(record.production);
            }
        });
        productions
    }

    /// Renders the tree as an s-expression using the table's symbol names:
    /// a leaf is its token text, an interior node `(name child …)`, and
    /// an ε-node `(name)`. One pass, linear in the output's length, into
    /// a string sized up front.
    pub fn to_sexpr(&self, table: &ParseTable) -> String {
        // Exact unless recovery left unreferenced records behind: every
        // entry but the first is preceded by a space, a node adds its
        // name and two parentheses.
        let text: usize = self.tokens.iter().map(|t| t.text().len()).sum();
        let names: usize = self
            .nodes
            .iter()
            .map(|r| table.nonterminal_name(r.nonterminal).len() + 2)
            .sum();
        let spaces = (self.tokens.len() + self.nodes.len()).saturating_sub(1);
        let mut out = String::with_capacity(text + names + spaces);
        let mut started = false;
        self.visit(|step| {
            if !matches!(step, Visit::Close(_)) && std::mem::replace(&mut started, true) {
                out.push(' ');
            }
            match step {
                Visit::Leaf(token) => out.push_str(token.text()),
                Visit::Open(record) => {
                    out.push('(');
                    out.push_str(table.nonterminal_name(record.nonterminal));
                }
                Visit::Close(_) => out.push(')'),
            }
        });
        out
    }
}

/// A borrowed view of one subtree of a [`ParseTree`]: a shifted token or
/// an interior node.
#[derive(Debug, Clone, Copy)]
pub enum Subtree<'t, 'a> {
    /// A shifted token.
    Leaf(&'t Token<'a>),
    /// A reduction.
    Node(NodeView<'t, 'a>),
}

/// A borrowed view of one interior node (one reduction) of a
/// [`ParseTree`].
#[derive(Clone, Copy)]
pub struct NodeView<'t, 'a> {
    tree: &'t ParseTree<'a>,
    record: &'t Record,
}

impl<'t, 'a> NodeView<'t, 'a> {
    /// The produced nonterminal's index.
    pub fn nonterminal(self) -> u32 {
        self.record.nonterminal
    }

    /// The production reduced.
    pub fn production(self) -> u32 {
        self.record.production
    }

    /// One child per RHS symbol, left to right (none for ε).
    pub fn children(self) -> impl ExactSizeIterator<Item = Subtree<'t, 'a>> + 't {
        let tree = self.tree;
        tree.children[self.record.first as usize..self.record.end as usize]
            .iter()
            .map(move |&id| tree.subtree(id))
    }

    /// Token leaves under this node.
    pub fn leaf_count(self) -> usize {
        self.record.leaves as usize
    }

    /// Interior nodes under and including this node.
    pub fn node_count(self) -> usize {
        self.record.nodes as usize
    }
}

impl fmt::Debug for NodeView<'_, '_> {
    /// The node's own fields, not its subtree: a view can sit a million
    /// levels above its leaves.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeView")
            .field("nonterminal", &self.record.nonterminal)
            .field("production", &self.record.production)
            .field("children", &(self.record.end - self.record.first))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;

    fn table(src: &str) -> ParseTable {
        let g = lalr_grammar::parse_grammar(src).unwrap();
        let lr0 = lalr_automata::Lr0Automaton::build(&g);
        let la = lalr_core::LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        lalr_tables::build_table(&g, &lr0, &la, lalr_tables::TableOptions::default())
    }

    fn tokens<'a>(t: &ParseTable, words: &[&'a str]) -> Vec<Token<'a>> {
        words
            .iter()
            .enumerate()
            .map(|(i, w)| Token::new(t.terminal_by_name(w).unwrap(), *w, i))
            .collect()
    }

    #[test]
    fn counting() {
        // (s a (t b c))
        let t = table("s : \"a\" t ; t : \"b\" \"c\" ;");
        let tree = Parser::new(&t).parse(tokens(&t, &["a", "b", "c"])).unwrap();
        assert_eq!(tree.to_sexpr(&t), "(s a (t b c))");
        assert_eq!(tree.leaf_count(), 3);
        assert_eq!(tree.node_count(), 2);
        assert_eq!(tree.height(), 2);
        let texts: Vec<&str> = tree.leaves().iter().map(|t| t.text()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn derivation_is_postorder() {
        let t = table("s : x e ; x : \"a\" ; e : ;");
        let tree = Parser::new(&t).parse(tokens(&t, &["a"])).unwrap();
        let Subtree::Node(root) = tree.root() else {
            panic!("s is a reduction");
        };
        let kids: Vec<u32> = root
            .children()
            .map(|c| match c {
                Subtree::Node(n) => n.production(),
                Subtree::Leaf(_) => panic!("both children are reductions"),
            })
            .collect();
        assert_eq!(
            tree.reverse_rightmost_derivation(),
            vec![kids[0], kids[1], root.production()]
        );
        assert_eq!(tree.to_sexpr(&t), "(s (x a) (e))");
    }

    #[test]
    fn epsilon_node() {
        let t = table("s : ;");
        let tree = Parser::new(&t).parse(Vec::new()).unwrap();
        assert_eq!(tree.leaf_count(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.to_sexpr(&t), "(s)");
        let Subtree::Node(root) = tree.root() else {
            panic!("s is a reduction");
        };
        assert_eq!(root.children().len(), 0);
    }

    #[test]
    fn empty_leaf_text_still_separates_entries() {
        let t = table("s : \"a\" \"b\" ;");
        let a = t.terminal_by_name("a").unwrap();
        let b = t.terminal_by_name("b").unwrap();
        let tree = Parser::new(&t)
            .parse([Token::new(a, "", 0), Token::new(b, "", 0)])
            .unwrap();
        assert_eq!(tree.to_sexpr(&t), "(s  )");
    }

    #[test]
    fn a_lone_leaf_is_its_own_sexpr() {
        let mut tree = ParseTree::with_capacity(1);
        tree.push_leaf(Token::new(1, "a", 0));
        tree.set_root(0);
        assert_eq!(tree.to_sexpr(&table("s : \"a\" ;")), "a");
        assert_eq!(
            (tree.leaf_count(), tree.node_count(), tree.height()),
            (1, 0, 0)
        );
        assert!(tree.reverse_rightmost_derivation().is_empty());
    }

    /// A million-level tree — the shape `s : "a" s | ;` gives a
    /// million-token document — built by the driver, walked and rendered
    /// on a thread whose whole stack is 256 KiB.
    #[test]
    fn million_level_tree_needs_no_deep_stack() {
        const DEPTH: usize = 1_000_000;
        let t = table("s : \"a\" s | ;");
        let a = t.terminal_by_name("a").unwrap();

        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                let tree = Parser::new(&t)
                    .parse((0..DEPTH).map(|i| Token::new(a, "a", i)))
                    .expect("a* is in the language");
                let Subtree::Node(root) = tree.root() else {
                    panic!("s derives \"a\" by a reduction");
                };
                let (s, cons) = (root.nonterminal(), root.production());
                let name = t.nonterminal_name(s);
                let expected =
                    format!("({name} a ").repeat(DEPTH) + &format!("({name})") + &")".repeat(DEPTH);
                assert!(tree.to_sexpr(&t) == expected, "rendering diverged");
                assert_eq!(tree.leaf_count(), DEPTH);
                assert_eq!(tree.node_count(), DEPTH + 1);
                assert_eq!(tree.height(), DEPTH + 1);
                let leaves = tree.leaves();
                assert_eq!(leaves.len(), DEPTH);
                assert!(leaves.iter().enumerate().all(|(i, l)| l.offset() == i));
                let derivation = tree.reverse_rightmost_derivation();
                assert_eq!(derivation.len(), DEPTH + 1);
                assert_ne!(derivation[0], cons, "the innermost s is the ε-reduction");
                assert!(derivation[1..].iter().all(|&p| p == cons));
                let copy = tree.clone();
                assert!(copy == tree);
                drop((tree, copy));
            })
            .unwrap()
            .join()
            .expect("deep-tree operations ran within a 256 KiB stack");
    }
}
