//! A complete calculator: ambiguous grammar tamed by precedence
//! declarations (the yacc workflow), parse trees evaluated to numbers.
//!
//! ```text
//! cargo run --example calculator -- "1 + 2 * 3 - (4 - 5) / 2"
//! ```

use lalr::prelude::*;
use lalr::runtime::Subtree;

const GRAMMAR: &str = r#"
    %left "+" "-"
    %left "*" "/"
    %right NEG
    expr : expr "+" expr
         | expr "-" expr
         | expr "*" expr
         | expr "/" expr
         | "-" expr %prec NEG
         | "(" expr ")"
         | NUM
         ;
"#;

fn eval(tree: Subtree) -> f64 {
    let node = match tree {
        Subtree::Leaf(tok) => return tok.text().parse().unwrap_or(0.0),
        Subtree::Node(node) => node,
    };
    let children: Vec<Subtree> = node.children().collect();
    match children.as_slice() {
        // expr op expr
        [l, Subtree::Leaf(op), r] if "+-*/".contains(op.text()) => {
            let (a, b) = (eval(*l), eval(*r));
            match op.text() {
                "+" => a + b,
                "-" => a - b,
                "*" => a * b,
                _ => a / b,
            }
        }
        // ( expr )
        [Subtree::Leaf(open), inner, _close] if open.text() == "(" => eval(*inner),
        // - expr
        [Subtree::Leaf(minus), inner] if minus.text() == "-" => -eval(*inner),
        // unit productions
        [single] => eval(*single),
        other => panic!("unexpected node shape: {} children", other.len()),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "1 + 2 * 3 - (4 - 5) / 2".to_string());

    let grammar = parse_grammar(GRAMMAR)?;
    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    println!(
        "raw conflicts before precedence: {}",
        analysis.conflicts(&grammar, &lr0).len()
    );

    let table = build_table(
        &grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );
    println!(
        "resolutions applied by precedence/assoc: {}",
        table.resolution_count()
    );

    let lexer = Lexer::for_table(&table).number("NUM").build();
    let tree = Parser::new(&table).parse(lexer.tokenize(&input)?)?;
    println!("{input} = {}", eval(tree.root()));
    Ok(())
}
