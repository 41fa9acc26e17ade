//! Conflict doctor: explain every conflict in a grammar, show how
//! precedence resolves some of them, and demonstrate panic-mode recovery
//! on a broken input.
//!
//! ```text
//! cargo run --example conflict_doctor
//! ```

use lalr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The dangling-else grammar with an assignment statement list.
    let grammar = parse_grammar(
        r#"
        %start stmts
        stmts : stmt | stmts ";" stmt ;
        stmt  : IF expr THEN stmt
              | IF expr THEN stmt ELSE stmt
              | ID "=" expr
              | ;
        expr  : ID | NUM ;
        "#,
    )?;

    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let conflicts = analysis.conflicts(&grammar, &lr0);
    println!("== raw LALR(1) conflicts ({}) ==", conflicts.len());
    for c in &conflicts {
        println!("  {}", c.display(&grammar));
    }

    let table = build_table(
        &grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );
    println!("\n== resolutions applied (yacc defaults) ==");
    let log = lalr::tables::resolutions(
        &grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );
    for r in &log {
        println!(
            "  state {} on {:?}: kept {} over {} ({:?})",
            r.state,
            table.terminal_name(r.terminal),
            r.kept,
            r.discarded,
            r.reason
        );
    }

    // Parse a valid input: else binds to the nearest if (the shift).
    let lexer = Lexer::for_table(&table)
        .number("NUM")
        .identifier("ID")
        .build();
    let tokens = lexer.tokenize("IF x THEN IF y THEN a = 1 ELSE b = 2")?;
    let tree = Parser::new(&table).parse(tokens)?;
    println!(
        "\ndangling else attaches inner-most:\n{}",
        tree.to_sexpr(&table)
    );

    // Error recovery across statements.
    let semi = table.terminal_by_name(";").expect("services ;");
    let broken = lexer.tokenize("a = 1 ; b = = 9 ; c = 3 ; IF THEN")?;
    let (tree, errors) = Parser::new(&table).parse_with_recovery(broken, &[semi], 8);
    println!("\n== recovery over broken input ==");
    for e in &errors {
        println!("  error: {e}");
    }
    println!("recovered tree produced: {}", tree.is_some());
    Ok(())
}
