//! The configuration header file.
//!
//! The paper instantiates every customisation parameter "in the
//! configuration header file" (§3.3), which is also "made available to the
//! assembler" so that the tools adapt to a customised processor without
//! recompilation (§4.2). This module reads and writes that file. The
//! syntax is the C-preprocessor style the Handel-C prototype used:
//!
//! ```text
//! /* EPIC processor configuration */
//! #define NUM_ALUS            4
//! #define NUM_GPRS            64
//! #define NUM_PRED_REGS       32
//! #define NUM_BTRS            16
//! #define REGS_PER_INSTR      4
//! #define ISSUE_WIDTH         4
//! #define DATAPATH_WIDTH      32
//! #define ALU_FEATURES        MUL|DIV|SHIFT|MINMAX|EXTEND
//! #define LOAD_LATENCY        2
//! #define MUL_LATENCY         1
//! #define DIV_LATENCY         8
//! #define FORWARDING          1
//! #define REGFILE_OPS         8
//! #define CUSTOM_OP_0         sha_rotr ROTR latency=1
//! ```
//!
//! `parse` accepts the output of `emit` verbatim (round-trip property) and
//! is forgiving about whitespace, blank lines and `//` or `/* */` comments.

use crate::{AluFeature, AluFeatureSet, Config, ConfigError, CustomOp, CustomSemantics};

/// Renders a configuration as header-file text.
///
/// The output parses back to an identical configuration:
///
/// ```
/// use epic_config::{header, Config};
///
/// let config = Config::builder().num_alus(2).build()?;
/// let text = header::emit(&config);
/// assert_eq!(header::parse(&text)?, config);
/// # Ok::<(), epic_config::ConfigError>(())
/// ```
#[must_use]
pub fn emit(config: &Config) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("/* EPIC processor configuration (generated) */\n");
    let mut line = |key: &str, value: String| {
        let _ = writeln!(out, "#define {key:<20} {value}");
    };
    line("NUM_ALUS", config.num_alus().to_string());
    line("NUM_GPRS", config.num_gprs().to_string());
    line("NUM_PRED_REGS", config.num_pred_regs().to_string());
    line("NUM_BTRS", config.num_btrs().to_string());
    line(
        "REGS_PER_INSTR",
        config.registers_per_instruction().to_string(),
    );
    line("ISSUE_WIDTH", config.issue_width().to_string());
    line("DATAPATH_WIDTH", config.datapath_width().to_string());
    line("ALU_FEATURES", config.alu_features().to_string());
    line("LOAD_LATENCY", config.load_latency().to_string());
    line("MUL_LATENCY", config.mul_latency().to_string());
    line("DIV_LATENCY", config.div_latency().to_string());
    line("FORWARDING", u32::from(config.forwarding()).to_string());
    line(
        "MEM_CONTENTION",
        u32::from(config.memory_contention()).to_string(),
    );
    line("PIPELINE_STAGES", config.pipeline_stages().to_string());
    line("REGFILE_OPS", config.regfile_ops_per_cycle().to_string());
    for (i, op) in config.custom_ops().iter().enumerate() {
        line(&format!("CUSTOM_OP_{i}"), op.to_string());
    }
    out
}

/// Parses header-file text into a validated [`Config`].
///
/// Unspecified parameters keep their paper defaults, so a header containing
/// only `#define NUM_ALUS 2` is a complete description of a 2-ALU machine.
///
/// # Errors
///
/// Returns [`ConfigError::HeaderSyntax`] for malformed lines,
/// [`ConfigError::UnknownParameter`] for unrecognised `#define` keys, and
/// any validation error the resulting parameter set would raise.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut builder = Config::builder();
    let mut custom_ops: Vec<(usize, CustomOp)> = Vec::new();
    let mut in_block_comment = false;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let mut line = raw_line.trim();

        if in_block_comment {
            match line.find("*/") {
                Some(end) => {
                    line = line[end + 2..].trim();
                    in_block_comment = false;
                }
                None => continue,
            }
        }
        // Strip `/* ... */` and `// ...` comments.
        let mut cleaned = String::new();
        let mut rest = line;
        loop {
            if let Some(start) = rest.find("/*") {
                cleaned.push_str(&rest[..start]);
                match rest[start + 2..].find("*/") {
                    Some(end) => rest = &rest[start + 2 + end + 2..],
                    None => {
                        in_block_comment = true;
                        rest = "";
                    }
                }
            } else {
                cleaned.push_str(rest);
                break;
            }
        }
        let line = match cleaned.find("//") {
            Some(pos) => cleaned[..pos].trim(),
            None => cleaned.trim(),
        };
        if line.is_empty() {
            continue;
        }

        let Some(body) = line.strip_prefix("#define") else {
            return Err(ConfigError::HeaderSyntax {
                line: line_no,
                message: format!("expected `#define`, found `{}`", excerpt(line)),
            });
        };
        let body = body.trim();
        let (key, value) = match body.split_once(char::is_whitespace) {
            Some((k, v)) => (k.trim(), v.trim()),
            None => {
                return Err(ConfigError::HeaderSyntax {
                    line: line_no,
                    message: format!("`#define {}` is missing a value", excerpt(body)),
                })
            }
        };

        let parse_usize = |value: &str| -> Result<usize, ConfigError> {
            value.parse().map_err(|_| ConfigError::HeaderSyntax {
                line: line_no,
                message: format!("`{}` is not an unsigned integer", excerpt(value)),
            })
        };

        match key {
            "NUM_ALUS" => builder = builder.num_alus(parse_usize(value)?),
            "NUM_GPRS" => builder = builder.num_gprs(parse_usize(value)?),
            "NUM_PRED_REGS" => builder = builder.num_pred_regs(parse_usize(value)?),
            "NUM_BTRS" => builder = builder.num_btrs(parse_usize(value)?),
            "REGS_PER_INSTR" => builder = builder.registers_per_instruction(parse_usize(value)?),
            "ISSUE_WIDTH" => builder = builder.issue_width(parse_usize(value)?),
            "DATAPATH_WIDTH" => builder = builder.datapath_width(parse_usize(value)? as u32),
            "ALU_FEATURES" => {
                builder = builder.alu_features(parse_features(value, line_no)?);
            }
            "LOAD_LATENCY" => builder = builder.load_latency(parse_usize(value)? as u32),
            "MUL_LATENCY" => builder = builder.mul_latency(parse_usize(value)? as u32),
            "DIV_LATENCY" => builder = builder.div_latency(parse_usize(value)? as u32),
            "FORWARDING" => builder = builder.forwarding(parse_usize(value)? != 0),
            "MEM_CONTENTION" => builder = builder.memory_contention(parse_usize(value)? != 0),
            "PIPELINE_STAGES" => builder = builder.pipeline_stages(parse_usize(value)?),
            "REGFILE_OPS" => builder = builder.regfile_ops_per_cycle(parse_usize(value)?),
            _ if key.starts_with("CUSTOM_OP_") => {
                let index = key["CUSTOM_OP_".len()..].parse::<usize>().map_err(|_| {
                    ConfigError::HeaderSyntax {
                        line: line_no,
                        message: format!("`{}` has a malformed index", excerpt(key)),
                    }
                })?;
                custom_ops.push((index, parse_custom_op(value, line_no)?));
            }
            _ => {
                return Err(ConfigError::UnknownParameter {
                    line: line_no,
                    key: excerpt(key),
                })
            }
        }
    }

    custom_ops.sort_by_key(|(index, _)| *index);
    for (_, op) in custom_ops {
        builder = builder.custom_op(op);
    }
    builder.build()
}

fn parse_features(value: &str, line: usize) -> Result<AluFeatureSet, ConfigError> {
    if value == "NONE" {
        return Ok(AluFeatureSet::minimal());
    }
    let mut set = AluFeatureSet::minimal();
    for part in value.split('|') {
        let part = part.trim();
        let feature = AluFeature::from_name(part).ok_or_else(|| ConfigError::HeaderSyntax {
            line,
            message: format!("unknown ALU feature `{}`", excerpt(part)),
        })?;
        set.insert(feature);
    }
    Ok(set)
}

fn parse_custom_op(value: &str, line: usize) -> Result<CustomOp, ConfigError> {
    // Format: `<name> <SEMANTICS> [latency=<n>]`
    let mut parts = value.split_whitespace();
    let (Some(name), Some(sem)) = (parts.next(), parts.next()) else {
        return Err(ConfigError::HeaderSyntax {
            line,
            message: format!(
                "custom op `{}` must be `<name> <SEMANTICS> [latency=<n>]`",
                excerpt(value)
            ),
        });
    };
    let semantics = CustomSemantics::from_spec(sem).ok_or_else(|| ConfigError::HeaderSyntax {
        line,
        message: format!("unknown custom-op semantics `{}`", excerpt(sem)),
    })?;
    let mut op = CustomOp::new(name, semantics);
    for extra in parts {
        match extra.split_once('=') {
            Some(("latency", n)) => {
                let latency = n.parse().map_err(|_| ConfigError::HeaderSyntax {
                    line,
                    message: format!("bad latency `{}`", excerpt(n)),
                })?;
                op = op.with_latency(latency);
            }
            _ => {
                return Err(ConfigError::HeaderSyntax {
                    line,
                    message: format!("unexpected custom-op attribute `{}`", excerpt(extra)),
                })
            }
        }
    }
    Ok(op)
}

/// At most the first [`EXCERPT_CHARS`] characters of `token`, marked
/// with `…` when cut: a message names the token without echoing a
/// hostile header's whole line.
fn excerpt(token: &str) -> String {
    match token.char_indices().nth(EXCERPT_CHARS) {
        Some((cut, _)) => format!("{}…", &token[..cut]),
        None => token.to_string(),
    }
}

/// Characters of an offending token a header error message echoes.
const EXCERPT_CHARS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_round_trips() {
        let config = Config::default();
        let text = emit(&config);
        assert_eq!(parse(&text).unwrap(), config);
    }

    #[test]
    fn customised_config_round_trips() {
        let config = Config::builder()
            .num_alus(2)
            .num_gprs(128)
            .datapath_width(32)
            .forwarding(false)
            .custom_op(CustomOp::new("sha_rotr", CustomSemantics::RotateRight))
            .custom_op(CustomOp::new("bswap", CustomSemantics::ByteSwap).with_latency(2))
            .build()
            .unwrap();
        let text = emit(&config);
        assert_eq!(parse(&text).unwrap(), config);
    }

    #[test]
    fn sparse_header_uses_defaults() {
        let config = parse("#define NUM_ALUS 2\n").unwrap();
        assert_eq!(config.num_alus(), 2);
        assert_eq!(config.num_gprs(), 64);
        assert_eq!(config.issue_width(), 4);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
/* machine for the DCT kernel */
// issue width stays at 4

#define NUM_ALUS 3 // three ALUs
#define ALU_FEATURES MUL|SHIFT /* no divide */
";
        let config = parse(text).unwrap();
        assert_eq!(config.num_alus(), 3);
        assert!(!config.alu_features().contains(AluFeature::Divide));
        assert!(config.alu_features().contains(AluFeature::Multiply));
    }

    #[test]
    fn multi_line_block_comment() {
        let text = "/* spans\nseveral\nlines */\n#define NUM_ALUS 1\n";
        assert_eq!(parse(text).unwrap().num_alus(), 1);
    }

    #[test]
    fn unknown_parameter_is_reported_with_line() {
        let err = parse("#define NUM_ALUS 2\n#define BOGUS 7\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownParameter {
                line: 2,
                key: "BOGUS".to_owned()
            }
        );
    }

    #[test]
    fn malformed_line_is_reported() {
        let err = parse("NUM_ALUS 2\n").unwrap_err();
        assert!(matches!(err, ConfigError::HeaderSyntax { line: 1, .. }));
    }

    #[test]
    fn custom_op_indices_give_stable_order() {
        let text = "\
#define CUSTOM_OP_1 second ROTL
#define CUSTOM_OP_0 first ROTR latency=3
";
        let config = parse(text).unwrap();
        assert_eq!(config.custom_ops()[0].name(), "first");
        assert_eq!(config.custom_ops()[0].latency(), 3);
        assert_eq!(config.custom_ops()[1].name(), "second");
    }

    #[test]
    fn fused_custom_op_round_trips() {
        let tree = crate::ExprTree::parse("or(shr(a0,7),shl(a0,sub(32,7)))").unwrap();
        let config = Config::builder()
            .custom_op(CustomOp::new("isx_rot7", CustomSemantics::Fused(tree)).with_latency(2))
            .build()
            .unwrap();
        let text = emit(&config);
        assert!(text.contains("isx_rot7 FUSED:or(shr(a0,7),shl(a0,sub(32,7))) latency=2"));
        assert_eq!(parse(&text).unwrap(), config);
    }

    #[test]
    fn malformed_fused_spec_is_reported() {
        let err = parse("#define CUSTOM_OP_0 bad FUSED:frob(a0)\n").unwrap_err();
        assert!(matches!(err, ConfigError::HeaderSyntax { line: 1, .. }));
    }

    #[test]
    fn unknown_semantics_echo_a_bounded_prefix() {
        let short = parse("#define CUSTOM_OP_0 bad FROB\n").unwrap_err();
        assert!(short
            .to_string()
            .contains("unknown custom-op semantics `FROB`"));
        let token = format!("FUSED:{}a0{}", "abs(".repeat(1000), ")".repeat(1000));
        let long = parse(&format!("#define CUSTOM_OP_0 deep {token}\n")).unwrap_err();
        let message = long.to_string();
        assert!(message.contains("unknown custom-op semantics `FUSED:abs(abs("));
        assert!(message.contains("…`"), "{message}");
        assert!(message.len() < 200, "{} bytes", message.len());
    }

    #[test]
    fn every_header_error_echoes_a_bounded_prefix() {
        let long = "9".repeat(10_000);
        for text in [
            format!("NUM_ALUS {long}\n"),
            format!("#define NUM_{long}\n"),
            format!("#define NUM_ALUS {long}\n"),
            format!("#define CUSTOM_OP_{long}x rot ROTR\n"),
            format!("#define X{long} 1\n"),
            format!("#define ALU_FEATURES MUL|X{long}\n"),
            format!("#define CUSTOM_OP_0 x{long}\n"),
            format!("#define CUSTOM_OP_0 rot ROTR latency={long}\n"),
            format!("#define CUSTOM_OP_0 rot ROTR x{long}\n"),
        ] {
            let message = parse(&text).unwrap_err().to_string();
            assert!(message.contains("…`"), "{message}");
            assert!(message.len() < 200, "{} bytes", message.len());
        }
    }

    #[test]
    fn none_features_parse() {
        let config = parse("#define ALU_FEATURES NONE\n").unwrap();
        assert!(config.alu_features().is_empty());
    }

    #[test]
    fn invalid_parameter_value_fails_validation() {
        assert!(parse("#define ISSUE_WIDTH 9\n").is_err());
    }
}
