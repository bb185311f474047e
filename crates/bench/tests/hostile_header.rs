//! A configuration header no tool can use is a header error, never a
//! crash: `epic-lint --config` on a fused custom op nested 100,000
//! operators deep exits 1, names the offending header line and echoes
//! only a prefix of the 600 KB token.

use std::process::Command;

#[test]
fn deeply_nested_fused_op_is_a_header_error() {
    let dir = std::env::temp_dir().join(format!("epic-lint-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let levels = 100_000;
    let header = format!(
        "#define NUM_ALUS 2\n#define CUSTOM_OP_0 deep FUSED:{}a0{} latency=1\n",
        "abs(".repeat(levels),
        ")".repeat(levels)
    );
    let (config, source) = (dir.join("deep.cfg"), dir.join("prog.s"));
    std::fs::write(&config, header).expect("write header");
    std::fs::write(&source, "    HALT\n;;\n").expect("write source");

    let output = Command::new(env!("CARGO_BIN_EXE_epic-lint"))
        .arg(&source)
        .arg("--config")
        .arg(&config)
        .output()
        .expect("epic-lint runs");
    std::fs::remove_dir_all(&dir).expect("remove temporary directory");

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("configuration header line 2: unknown custom-op semantics"),
        "stderr: {stderr}"
    );
    assert!(
        output.stderr.len() < 1024,
        "{} bytes of stderr, the offending token echoed whole",
        output.stderr.len()
    );
}
