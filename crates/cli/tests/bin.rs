//! End-to-end tests of the `lalrgen` binary itself (argument handling,
//! exit codes, stdout/stderr split).

use std::process::Command;

fn lalrgen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lalrgen"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_exits_zero() {
    let out = lalrgen(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

#[test]
fn unknown_command_exits_two() {
    let out = lalrgen(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("available: analyze,"), "{stderr}");
}

/// The full daemon lifecycle through the binary alone: serve on an
/// ephemeral port, compile through the client (cold then warm), read
/// stats, shut down in-band, and verify the server exits zero. The pool
/// runs exactly the `--threads` workers asked for.
#[test]
fn serve_client_stats_shutdown_round_trip() {
    use std::io::BufRead;

    let mut server = Command::new(env!("CARGO_BIN_EXE_lalrgen"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");

    // The daemon announces its picked port on stderr before accepting.
    let mut stderr = std::io::BufReader::new(server.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();

    let client = |args: &[&str]| -> String {
        let out = lalrgen(&[&["client"], args, &["--addr", &addr]].concat());
        assert!(
            out.status.success(),
            "client {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let cold = client(&["compile", "expr"]);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    let warm = client(&["compile", "expr"]);
    assert!(warm.contains("\"cached\":true"), "{warm}");

    let parse = client(&["parse", "expr", "--input", "NUM + NUM * NUM"]);
    assert!(parse.contains("\"accepted\":true"), "{parse}");

    let stats = lalrgen(&["stats", "--addr", &addr]);
    assert!(stats.status.success());
    let stats = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.contains("\"hits\":"), "{stats}");
    assert!(stats.contains("\"workers\":1"), "{stats}");

    client(&["shutdown"]);
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exit: {status:?}");
}

#[test]
fn serve_rejects_a_malformed_chaos_spec_naming_the_problem() {
    let out = lalrgen(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--chaos",
        "daemon.read:frobnicate:0.5",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--chaos"), "{stderr}");
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

#[test]
fn unknown_flag_lists_include_the_resilience_flags() {
    let out = lalrgen(&["serve", "--bogus"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--chaos"), "{stderr}");
    assert!(stderr.contains("--drain-ms"), "{stderr}");
    assert!(stderr.contains("--max-pending"), "{stderr}");

    let out = lalrgen(&["client", "compile", "expr", "--bogus"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--retries"), "{stderr}");
    assert!(stderr.contains("--backoff-ms"), "{stderr}");
}

/// A chaos-armed daemon through the binary alone: the first compile
/// panics in the worker, the retrying client succeeds anyway, and the
/// shutdown summary reports the drain.
#[test]
fn chaos_armed_serve_round_trip_with_retrying_client() {
    use std::io::BufRead;

    let mut server = Command::new(env!("CARGO_BIN_EXE_lalrgen"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--chaos",
            "service.compile:panic:@1",
            "--chaos-seed",
            "7",
            "--drain-ms",
            "2000",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");

    let mut stderr = std::io::BufReader::new(server.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();

    // Without retries the injected panic is the client's answer…
    let out = lalrgen(&["client", "compile", "expr", "--addr", &addr]);
    assert_eq!(out.status.code(), Some(1), "first compile should fail");
    let body = String::from_utf8_lossy(&out.stderr);
    assert!(body.contains("\"panicked\""), "{body}");

    // …and with them the next injected hit (none remain) cannot stop it.
    let out = lalrgen(&[
        "client",
        "compile",
        "expr",
        "--addr",
        &addr,
        "--retries",
        "2",
        "--backoff-ms",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"ok\":true"));

    let out = lalrgen(&["client", "shutdown", "--addr", &addr]);
    assert!(out.status.success());
    let mut stdout = server.stdout.take().unwrap();
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exit: {status:?}");
    let mut summary = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut summary).unwrap();
    assert!(summary.contains("drained"), "{summary}");
    assert!(summary.contains("aborted 0"), "{summary}");
}

/// Warm restart through the binary alone: a daemon with `--store`
/// compiles and persists, a second daemon over the same directory
/// serves the repeat request from disk (cached, store hit in stats)
/// without recompiling.
#[test]
fn serve_with_store_survives_a_restart_warm() {
    use std::io::BufRead;

    let dir = std::env::temp_dir().join(format!("lalrgen-store-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();

    let spawn_server = || {
        let mut server = Command::new(env!("CARGO_BIN_EXE_lalrgen"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--store",
                &dir_arg,
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("server starts");
        let mut stderr = std::io::BufReader::new(server.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("serving on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_string();
        (server, addr, stderr)
    };

    let (mut first, addr, mut first_err) = spawn_server();
    let cold = lalrgen(&["client", "compile", "expr", "--addr", &addr]);
    if !cold.status.success() {
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut first_err, &mut rest).ok();
        panic!(
            "cold compile: {}\nserver stderr: {rest}",
            String::from_utf8_lossy(&cold.stderr)
        );
    }
    assert!(String::from_utf8_lossy(&cold.stdout).contains("\"cached\":false"));
    assert!(lalrgen(&["client", "shutdown", "--addr", &addr])
        .status
        .success());
    assert!(first.wait().unwrap().success());

    // The artifact store survives on disk between the two processes.
    let out = lalrgen(&["store", "verify", "--dir", &dir_arg]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 ok, 0 corrupt"));

    let (mut second, addr, _second_err) = spawn_server();
    let warm = lalrgen(&["client", "compile", "expr", "--addr", &addr]);
    assert!(warm.status.success());
    assert!(
        String::from_utf8_lossy(&warm.stdout).contains("\"cached\":true"),
        "warm restart must serve from the store: {}",
        String::from_utf8_lossy(&warm.stdout)
    );
    let stats = lalrgen(&["stats", "--addr", &addr]);
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats.contains("\"store_hits\":1"), "{stats}");
    assert!(stats.contains("\"compiles\":0"), "{stats}");
    assert!(lalrgen(&["client", "shutdown", "--addr", &addr])
        .status
        .success());
    assert!(second.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn classify_corpus_grammar_on_stdout() {
    let out = lalrgen(&["classify", "ada_subset"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LALR(1)"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn parse_rejection_exits_nonzero() {
    let out = lalrgen(&["parse", "expr", "1 +", "--number", "NUM"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("rejected"));
}

#[test]
fn codegen_emits_compilable_looking_source() {
    let out = lalrgen(&["codegen", "json", "json_parser"]);
    assert!(out.status.success());
    let src = String::from_utf8_lossy(&out.stdout);
    assert!(src.contains("@generated"));
    assert!(src.contains("json_parser"));
    assert!(src.contains("pub fn parse"));
}

#[test]
fn grammar_file_workflow() {
    let dir = std::env::temp_dir().join("lalrgen_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ab.g");
    std::fs::write(&path, "s : \"a\" s \"b\" | ;").unwrap();
    let p = path.to_str().unwrap();

    let out = lalrgen(&["analyze", p]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = lalrgen(&["parse", p, "a a b b"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("accepted"));

    let out = lalrgen(&["parse", p, "a b b"]);
    assert_eq!(out.status.code(), Some(1));
}

/// Case files: `+`/`-` lines name terminals verbatim, non-ASCII ones
/// included, and a line that starts with neither is an error, also when
/// its first character is more than one byte.
#[test]
fn check_reads_non_ascii_cases_and_rejects_unmarked_lines() {
    let dir = std::env::temp_dir().join(format!("lalrgen_check_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grammar = dir.join("e.g");
    std::fs::write(&grammar, "s : \"é\" t ; t : \"x\" ;").unwrap();
    let g = grammar.to_str().unwrap();
    let cases = dir.join("cases.txt");
    std::fs::write(&cases, "+ é x\n- Ã© x\n- x\n").unwrap();
    let out = lalrgen(&["check", g, cases.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("FAIL"), "{stdout}");

    std::fs::write(&cases, "+ x\né x\n").unwrap();
    let out = lalrgen(&["check", g, cases.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(":2: lines start with + or -"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
