//! Parse trees.

use lalr_tables::ParseTable;

use crate::token::Token;

/// A concrete parse tree: interior nodes are reductions, leaves are tokens.
///
/// A document's tree is as deep as its input is long (a right-recursive
/// list of `n` tokens nests `n` levels), so every walk the parse lane
/// runs — [`to_sexpr`](Self::to_sexpr), [`leaf_count`](Self::leaf_count),
/// [`node_count`](Self::node_count), [`height`](Self::height),
/// [`leaves`](Self::leaves),
/// [`reverse_rightmost_derivation`](Self::reverse_rightmost_derivation)
/// and dropping the tree — keeps its path on a heap stack and needs no
/// native stack in proportion to depth. The derived `Clone`, `PartialEq`
/// and `Debug` still recurse once per level; the service never calls them
/// on a document's tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTree {
    /// A reduction by `production`, yielding `nonterminal`.
    Node {
        /// The produced nonterminal's index.
        nonterminal: u32,
        /// The production reduced.
        production: u32,
        /// One child per RHS symbol (empty for ε).
        children: Vec<ParseTree>,
    },
    /// A shifted token.
    Leaf(Token),
}

/// One step of a depth-first, left-to-right walk.
enum Step<'a> {
    /// Entering a subtree: a leaf, or an interior node before its children.
    Enter(&'a ParseTree),
    /// Leaving an interior node after its last child.
    Leave(&'a ParseTree),
}

/// A depth-first walk over a heap stack of child iterators, one per open
/// interior node.
struct Walk<'a> {
    root: Option<&'a ParseTree>,
    open: Vec<(&'a ParseTree, std::slice::Iter<'a, ParseTree>)>,
}

impl<'a> Walk<'a> {
    fn enter(&mut self, tree: &'a ParseTree) -> Step<'a> {
        if let ParseTree::Node { children, .. } = tree {
            self.open.push((tree, children.iter()));
        }
        Step::Enter(tree)
    }
}

impl<'a> Iterator for Walk<'a> {
    type Item = Step<'a>;

    fn next(&mut self) -> Option<Step<'a>> {
        if let Some(root) = self.root.take() {
            return Some(self.enter(root));
        }
        let (node, children) = self.open.last_mut()?;
        match children.next() {
            Some(child) => Some(self.enter(child)),
            None => {
                let node = *node;
                self.open.pop();
                Some(Step::Leave(node))
            }
        }
    }
}

impl ParseTree {
    fn walk(&self) -> Walk<'_> {
        Walk {
            root: Some(self),
            open: Vec::new(),
        }
    }

    /// Number of token leaves.
    pub fn leaf_count(&self) -> usize {
        self.walk()
            .filter(|step| matches!(step, Step::Enter(ParseTree::Leaf(_))))
            .count()
    }

    /// Number of interior nodes (= reductions performed).
    pub fn node_count(&self) -> usize {
        self.walk()
            .filter(|step| matches!(step, Step::Leave(_)))
            .count()
    }

    /// Height of the tree (a leaf has height 0).
    pub fn height(&self) -> usize {
        let (mut depth, mut height) = (0usize, 0usize);
        for step in self.walk() {
            match step {
                Step::Enter(ParseTree::Node { .. }) => {
                    depth += 1;
                    height = height.max(depth);
                }
                Step::Enter(ParseTree::Leaf(_)) => {}
                Step::Leave(_) => depth -= 1,
            }
        }
        height
    }

    /// The leaves in order — the parsed token sequence (round-trip check).
    pub fn leaves(&self) -> Vec<&Token> {
        self.walk()
            .filter_map(|step| match step {
                Step::Enter(ParseTree::Leaf(t)) => Some(t),
                _ => None,
            })
            .collect()
    }

    /// The *reverse rightmost derivation* this tree encodes — the sequence
    /// of production indices an LR parser emits (post-order, right-to-left
    /// children visited last). Replaying it backwards from the start
    /// symbol reproduces the input: the classic LR output convention.
    pub fn reverse_rightmost_derivation(&self) -> Vec<u32> {
        self.walk()
            .filter_map(|step| match step {
                Step::Leave(ParseTree::Node { production, .. }) => Some(*production),
                _ => None,
            })
            .collect()
    }

    /// Renders the tree as an s-expression using the table's symbol names:
    /// a leaf is its token text, an interior node `(name child …)`, and
    /// an ε-node `(name)`. One pass, linear in the output's length.
    pub fn to_sexpr(&self, table: &ParseTable) -> String {
        let mut out = String::new();
        for (i, step) in self.walk().enumerate() {
            match step {
                Step::Enter(tree) => {
                    if i > 0 {
                        out.push(' ');
                    }
                    match tree {
                        ParseTree::Leaf(t) => out.push_str(t.text()),
                        ParseTree::Node { nonterminal, .. } => {
                            out.push('(');
                            out.push_str(table.nonterminal_name(*nonterminal));
                        }
                    }
                }
                Step::Leave(_) => out.push(')'),
            }
        }
        out
    }
}

impl Drop for ParseTree {
    /// Frees the subtrees from a heap stack instead of one native frame
    /// per level, so a deep tree cannot overflow the dropping thread.
    fn drop(&mut self) {
        let ParseTree::Node { children, .. } = self else {
            return;
        };
        let mut pending = std::mem::take(children);
        while let Some(mut tree) = pending.pop() {
            if let ParseTree::Node { children, .. } = &mut tree {
                pending.append(children);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(text: &str) -> ParseTree {
        ParseTree::Leaf(Token::new(1, text, 0))
    }

    #[test]
    fn counting() {
        let tree = ParseTree::Node {
            nonterminal: 1,
            production: 1,
            children: vec![
                leaf("a"),
                ParseTree::Node {
                    nonterminal: 2,
                    production: 2,
                    children: vec![leaf("b"), leaf("c")],
                },
            ],
        };
        assert_eq!(tree.leaf_count(), 3);
        assert_eq!(tree.node_count(), 2);
        assert_eq!(tree.height(), 2);
        let texts: Vec<&str> = tree.leaves().iter().map(|t| t.text()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn derivation_is_postorder() {
        let tree = ParseTree::Node {
            nonterminal: 1,
            production: 1,
            children: vec![
                ParseTree::Node {
                    nonterminal: 2,
                    production: 2,
                    children: vec![leaf("a")],
                },
                ParseTree::Node {
                    nonterminal: 3,
                    production: 3,
                    children: vec![],
                },
            ],
        };
        assert_eq!(tree.reverse_rightmost_derivation(), vec![2, 3, 1]);
    }

    #[test]
    fn epsilon_node() {
        let tree = ParseTree::Node {
            nonterminal: 1,
            production: 2,
            children: vec![],
        };
        assert_eq!(tree.leaf_count(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.height(), 1);
    }

    fn table(src: &str) -> ParseTable {
        let g = lalr_grammar::parse_grammar(src).unwrap();
        let lr0 = lalr_automata::Lr0Automaton::build(&g);
        let la = lalr_core::LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        lalr_tables::build_table(&g, &lr0, &la, lalr_tables::TableOptions::default())
    }

    #[test]
    fn a_lone_leaf_is_its_own_sexpr() {
        let tree = leaf("a");
        assert_eq!(tree.to_sexpr(&table("s : \"a\" ;")), "a");
        assert_eq!(
            (tree.leaf_count(), tree.node_count(), tree.height()),
            (1, 0, 0)
        );
        assert!(tree.reverse_rightmost_derivation().is_empty());
    }

    /// A million-level tree — the shape `s : "a" s | ;` gives a
    /// million-token document — walked, rendered and dropped on a thread
    /// whose whole stack is 256 KiB.
    #[test]
    fn million_level_tree_needs_no_deep_stack() {
        const DEPTH: usize = 1_000_000;
        let t = table("s : \"a\" s | ;");
        let a = t.terminal_by_name("a").unwrap();
        // The ids of `s`, `s : "a" s` and `s : ε`, read off a parse of "a".
        let one = crate::parser::Parser::new(&t)
            .parse([Token::new(a, "a", 0)])
            .unwrap();
        let ParseTree::Node {
            nonterminal: s,
            production: cons,
            children,
        } = &one
        else {
            panic!("s derives \"a\" by a reduction");
        };
        let ParseTree::Node {
            production: empty, ..
        } = &children[1]
        else {
            panic!("the inner s is the ε-reduction");
        };
        let (s, cons, empty) = (*s, *cons, *empty);

        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                let mut tree = ParseTree::Node {
                    nonterminal: s,
                    production: empty,
                    children: Vec::new(),
                };
                for i in (0..DEPTH).rev() {
                    tree = ParseTree::Node {
                        nonterminal: s,
                        production: cons,
                        children: vec![ParseTree::Leaf(Token::new(a, "a", i)), tree],
                    };
                }
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
                assert_eq!(derivation[0], empty);
                assert!(derivation[1..].iter().all(|&p| p == cons));
                drop(tree);
            })
            .unwrap()
            .join()
            .expect("deep-tree operations ran within a 256 KiB stack");
    }
}
