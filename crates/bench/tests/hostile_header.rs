//! A configuration header no tool can use is a header error, never a
//! crash: `epic-lint --config` on a fused custom op nested 100,000
//! operators deep, on a 600,000-digit `NUM_ALUS` and on a
//! 600,000-character custom-op attribute exits 1, names the offending
//! header line and echoes only a prefix of the offending token.

use std::process::{Command, Output};

/// Runs `epic-lint` on a one-bundle program under `header`.
fn lint_under(name: &str, header: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("epic-lint-hostile-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let (config, source) = (dir.join("hostile.cfg"), dir.join("prog.s"));
    std::fs::write(&config, header).expect("write header");
    std::fs::write(&source, "    HALT\n;;\n").expect("write source");
    let output = Command::new(env!("CARGO_BIN_EXE_epic-lint"))
        .arg(&source)
        .arg("--config")
        .arg(&config)
        .output()
        .expect("epic-lint runs");
    std::fs::remove_dir_all(&dir).expect("remove temporary directory");
    output
}

/// Asserts a header error at `line` whose message starts with `message`,
/// in under 1 KB of stderr.
fn assert_bounded_header_error(output: &Output, line: usize, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("configuration header line {line}: {message}")),
        "stderr: {stderr}"
    );
    assert!(
        output.stderr.len() < 1024,
        "{} bytes of stderr, the offending token echoed whole",
        output.stderr.len()
    );
}

#[test]
fn deeply_nested_fused_op_is_a_header_error() {
    let levels = 100_000;
    let header = format!(
        "#define NUM_ALUS 2\n#define CUSTOM_OP_0 deep FUSED:{}a0{} latency=1\n",
        "abs(".repeat(levels),
        ")".repeat(levels)
    );
    let output = lint_under("deep", &header);
    assert_bounded_header_error(&output, 2, "unknown custom-op semantics");
}

#[test]
fn huge_tokens_are_header_errors() {
    let digits = "9".repeat(600_000);
    let output = lint_under("digits", &format!("#define NUM_ALUS {digits}\n"));
    assert_bounded_header_error(&output, 1, "`99");
    let attribute = "x".repeat(600_000);
    let output = lint_under(
        "attribute",
        &format!("#define CUSTOM_OP_0 rot ROTR {attribute}\n"),
    );
    assert_bounded_header_error(&output, 1, "unexpected custom-op attribute");
}
