//! Source parsing and assembly.

use crate::error::AsmError;
use crate::program::Program;
use epic_config::Config;
use epic_isa::{Btr, Dest, DestKind, Gpr, Instruction, Opcode, Operand, PredReg, SrcKind};
use epic_mdes::MachineDescription;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Assembles source text into a program for the given configuration.
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the 1-based source line of the first
/// problem: unknown mnemonics or labels, malformed operands, bundles that
/// violate the machine description, or instructions the configuration
/// cannot execute (excluded ALU features, out-of-range registers).
pub fn assemble(source: &str, config: &Config) -> Result<Program, AsmError> {
    let mdes = MachineDescription::new(config);
    let width = config.issue_width();

    // Parsed bundles, padded once every label is known; the source line
    // of every instruction in order, and the label each `@label`
    // operand names, by instruction index and source slot (0 for
    // `src1`, 1 for `src2`).
    let mut bundles: Vec<Vec<Instruction>> = Vec::new();
    let mut current: Vec<Instruction> = Vec::with_capacity(width);
    let mut lines: Vec<usize> = Vec::new();
    let mut label_refs: Vec<(usize, usize, &str)> = Vec::new();
    let mut current_first_line = 0usize;
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut entry_label: Option<(&str, usize)> = None;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim();
        if trimmed == ";;" {
            if current.is_empty() {
                return Err(AsmError::EmptyBundle { line: line_no });
            }
            mdes.check_bundle(&current)
                .map_err(|source| AsmError::IllegalBundle {
                    line: line_no,
                    source,
                })?;
            bundles.push(std::mem::replace(&mut current, Vec::with_capacity(width)));
            continue;
        }
        // Strip comments (a single `;` introduces one).
        let code = match trimmed.find(';') {
            Some(pos) => trimmed[..pos].trim(),
            None => trimmed,
        };
        if code.is_empty() {
            continue;
        }
        if let Some(rest) = code.strip_prefix(".entry") {
            entry_label = Some((rest.trim(), line_no));
            continue;
        }
        if let Some(label) = code.strip_suffix(':') {
            let label = label.trim();
            if !is_ident(label) {
                return Err(AsmError::Syntax {
                    line: line_no,
                    message: format!("`{label}` is not a valid label"),
                });
            }
            if !current.is_empty() {
                return Err(AsmError::Syntax {
                    line: line_no,
                    message: "labels must precede a bundle, not split one".to_owned(),
                });
            }
            if labels
                .insert(label.to_owned(), bundles.len() as u32)
                .is_some()
            {
                return Err(AsmError::DuplicateLabel {
                    line: line_no,
                    label: label.to_owned(),
                });
            }
            continue;
        }
        // An instruction.
        if current.is_empty() {
            current_first_line = line_no;
        }
        let (instr, label_refs_of) = parse_instruction(code, line_no, config)?;
        for (slot, label) in label_refs_of.into_iter().enumerate() {
            if let Some(label) = label {
                label_refs.push((lines.len(), slot, label));
            }
        }
        lines.push(line_no);
        current.push(instr);
    }
    if !current.is_empty() {
        return Err(AsmError::UnterminatedBundle {
            line: current_first_line,
        });
    }
    if bundles.is_empty() {
        return Err(AsmError::EmptyProgram);
    }

    // Resolve labels and validate instructions, in source order.
    let mut label_refs = label_refs.into_iter().peekable();
    let mut index = 0;
    for bundle in &mut bundles {
        for instr in bundle.iter_mut() {
            let line = lines[index];
            while let Some((_, slot, label)) = label_refs.next_if(|&(at, _, _)| at == index) {
                let addr = labels.get(label).ok_or_else(|| AsmError::UnknownLabel {
                    line,
                    label: label.to_owned(),
                })?;
                let src = if slot == 0 {
                    &mut instr.src1
                } else {
                    &mut instr.src2
                };
                *src = Operand::Lit(i64::from(*addr));
            }
            instr
                .validate(config)
                .map_err(|source| AsmError::Isa { line, source })?;
            index += 1;
        }
        // NOP padding up to the issue width (paper §4.2).
        bundle.resize(width, Instruction::nop());
    }

    let entry = match entry_label {
        Some((label, line)) => *labels.get(label).ok_or_else(|| AsmError::UnknownLabel {
            line,
            label: label.to_owned(),
        })?,
        None => 0,
    };
    Ok(Program::new(bundles, entry, labels))
}

/// The opcode a mnemonic names on `config`'s machine. A custom op's
/// configured name and its `CUSTOM_<n>` form both name slot `n`; a
/// later registration shadows an earlier one, and any registration
/// shadows a fixed mnemonic.
fn opcode_named(mnemonic: &str, config: &Config) -> Option<Opcode> {
    let slot = mnemonic
        .strip_prefix("CUSTOM_")
        .filter(|n| n.bytes().all(|b| b.is_ascii_digit()) && (*n == "0" || !n.starts_with('0')))
        .and_then(|n| n.parse::<usize>().ok());
    let mut custom = config.custom_ops().iter().enumerate().rev();
    if let Some((i, _)) = custom.find(|(i, op)| slot == Some(*i) || op.name() == mnemonic) {
        return Some(Opcode::Custom(i as u16));
    }
    static FIXED: OnceLock<HashMap<&'static str, Opcode>> = OnceLock::new();
    let fixed = FIXED.get_or_init(|| {
        (Opcode::all_fixed().into_iter())
            .map(|op| match op.mnemonic() {
                Cow::Borrowed(name) => (name, op),
                Cow::Owned(_) => unreachable!("fixed opcodes have static mnemonics"),
            })
            .collect()
    });
    fixed.get(mnemonic).copied()
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().expect("nonempty").is_ascii_digit()
}

/// Parses one instruction line, returning the instruction and the label
/// each source slot (`src1`, `src2`) names, if any.
fn parse_instruction<'s>(
    code: &'s str,
    line: usize,
    config: &Config,
) -> Result<(Instruction, [Option<&'s str>; 2]), AsmError> {
    // Split off a trailing guard `(pN)`.
    let (body, guard) = match code.rfind('(') {
        Some(pos) if code.ends_with(')') => {
            let guard_text = code[pos + 1..code.len() - 1].trim();
            (code[..pos].trim(), Some(guard_text))
        }
        _ => (code, None),
    };
    let (mnemonic, operand_text) = match body.split_once(char::is_whitespace) {
        Some((m, rest)) => (m.trim(), rest.trim()),
        None => (body, ""),
    };
    let opcode = opcode_named(mnemonic, config).ok_or_else(|| AsmError::UnknownMnemonic {
        line,
        mnemonic: mnemonic.to_owned(),
    })?;
    let operands = || operand_text.split(',').map(str::trim);
    let found = if operand_text.is_empty() {
        0
    } else {
        operands().count()
    };

    let sig = opcode.signature();
    // Field slots in printing order.
    #[derive(Clone, Copy)]
    enum Slot {
        Dest(DestKind, bool), // bool: is dest2
        Src(SrcKind, bool),   // bool: is src2
    }
    let mut slots = [Slot::Dest(DestKind::None, false); 4];
    let mut expected = 0;
    let mut add = |slot| {
        slots[expected] = slot;
        expected += 1;
    };
    if sig.dest1 != DestKind::None {
        add(Slot::Dest(sig.dest1, false));
    }
    if sig.dest2 != DestKind::None {
        add(Slot::Dest(sig.dest2, true));
    }
    if opcode == Opcode::Movil {
        add(Slot::Src(SrcKind::LongLit, false));
    } else {
        if sig.src1 != SrcKind::None {
            add(Slot::Src(sig.src1, false));
        }
        if sig.src2 != SrcKind::None {
            add(Slot::Src(sig.src2, true));
        }
    }
    if found != expected {
        return Err(AsmError::WrongOperandCount {
            line,
            mnemonic: mnemonic.to_owned(),
            expected,
            found,
        });
    }

    let mut instr = Instruction::new(opcode, Dest::None, Dest::None, Operand::None, Operand::None);
    let mut label_refs = [None; 2];

    for (slot, text) in slots[..expected].iter().zip(operands()) {
        match slot {
            Slot::Dest(kind, is_second) => {
                let dest = parse_dest(text, *kind, line)?;
                if *is_second {
                    instr.dest2 = dest;
                } else {
                    instr.dest1 = dest;
                }
            }
            Slot::Src(kind, is_second) => {
                let (src, label) = parse_src(text, *kind, line)?;
                label_refs[usize::from(*is_second)] = label;
                if *is_second {
                    instr.src2 = src;
                } else {
                    instr.src1 = src;
                }
            }
        }
    }

    if let Some(g) = guard {
        let Some(index) = parse_reg(g, 'p') else {
            return Err(AsmError::BadOperand {
                line,
                operand: g.to_owned(),
                expected: "a guard predicate like (p3)",
            });
        };
        instr = instr.with_pred(PredReg(index));
    }
    Ok((instr, label_refs))
}

fn parse_reg(text: &str, prefix: char) -> Option<u16> {
    let rest = text.strip_prefix(prefix)?;
    rest.parse().ok()
}

fn parse_literal(text: &str) -> Option<i64> {
    let body = text.strip_prefix('#')?;
    if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()
    } else if let Some(hex) = body.strip_prefix("-0x") {
        i64::from_str_radix(hex, 16).ok().map(|v| -v)
    } else {
        body.parse().ok()
    }
}

fn parse_dest(text: &str, kind: DestKind, line: usize) -> Result<Dest, AsmError> {
    let bad = |expected: &'static str| AsmError::BadOperand {
        line,
        operand: text.to_owned(),
        expected,
    };
    match kind {
        DestKind::None => Err(bad("no operand")),
        DestKind::Gpr | DestKind::GprRead => parse_reg(text, 'r')
            .map(|i| Dest::Gpr(Gpr(i)))
            .ok_or_else(|| bad("a general-purpose register like r3")),
        DestKind::Pred => parse_reg(text, 'p')
            .map(|i| Dest::Pred(PredReg(i)))
            .ok_or_else(|| bad("a predicate register like p2")),
        DestKind::Btr => parse_reg(text, 'b')
            .map(|i| Dest::Btr(Btr(i)))
            .ok_or_else(|| bad("a branch target register like b1")),
    }
}

fn parse_src(text: &str, kind: SrcKind, line: usize) -> Result<(Operand, Option<&str>), AsmError> {
    let bad = |expected: &'static str| AsmError::BadOperand {
        line,
        operand: text.to_owned(),
        expected,
    };
    match kind {
        SrcKind::None => Err(bad("no operand")),
        SrcKind::GprOrLit => {
            if let Some(i) = parse_reg(text, 'r') {
                Ok((Operand::Gpr(Gpr(i)), None))
            } else if let Some(v) = parse_literal(text) {
                Ok((Operand::Lit(v), None))
            } else if let Some(label) = text.strip_prefix('@') {
                if is_ident(label) {
                    Ok((Operand::Lit(0), Some(label)))
                } else {
                    Err(bad("a label like @loop_head"))
                }
            } else {
                Err(bad("a register, literal or @label"))
            }
        }
        SrcKind::Btr => parse_reg(text, 'b')
            .map(|i| (Operand::Btr(Btr(i)), None))
            .ok_or_else(|| bad("a branch target register like b1")),
        SrcKind::Pred => parse_reg(text, 'p')
            .map(|i| (Operand::Pred(PredReg(i)), None))
            .ok_or_else(|| bad("a predicate register like p2")),
        SrcKind::LongLit => parse_literal(text)
            .map(|v| (Operand::Lit(v), None))
            .ok_or_else(|| bad("a literal like #305419896")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> Config {
        Config::default()
    }

    #[test]
    fn canonical_instructions_assemble() {
        let src = "\
.entry main
main:
    ADD r1, r2, #5 (p3)
    CMP_LT p1, p2, r6, #10
    SW r5, r6, #8
;;
    PBR b1, @main
    MOVIL r9, #0x12345678
    LW r7, r8, #-4
;;
    BRCT b1 (p1)
;;
    HALT
;;
";
        let program = assemble(src, &config()).unwrap();
        assert_eq!(program.bundles().len(), 4);
        assert_eq!(program.entry(), 0);
        assert_eq!(program.label("main"), Some(0));
        // Both bundles are padded to the issue width of 4.
        assert_eq!(program.bundles()[0].len(), 4);
        assert_eq!(program.bundles()[0][3].opcode, Opcode::Nop);
        assert_eq!(program.bundles()[1].len(), 4);
        assert_eq!(program.bundles()[1][3].opcode, Opcode::Nop);
        // The PBR resolved to bundle 0.
        assert_eq!(program.bundles()[1][0].src1, Operand::Lit(0));
        assert_eq!(
            program.bundles()[1][1].src1,
            Operand::Lit(0x1234_5678),
            "MOVIL hex literal"
        );
    }

    #[test]
    fn labels_resolve_into_the_slot_that_names_them() {
        let src = "\
main:
    NOP
;;
    NOP
;;
tail:
    ADD r1, r2, @tail
    SW r5, r6, @tail
;;
    ADD r3, @tail, @main
;;
    HALT
;;
";
        let program = assemble(src, &config()).unwrap();
        let [add, sw, ..] = &program.bundles()[2][..] else {
            panic!("two ops in bundle 2");
        };
        assert_eq!(
            (add.src1, add.src2),
            (Operand::Gpr(Gpr(2)), Operand::Lit(2))
        );
        assert_eq!((sw.src1, sw.src2), (Operand::Gpr(Gpr(6)), Operand::Lit(2)));
        let both = &program.bundles()[3][0];
        assert_eq!((both.src1, both.src2), (Operand::Lit(2), Operand::Lit(0)));
    }

    #[test]
    fn text_round_trips_through_disassembly() {
        let src = "\
main:
    ADD r1, r2, r3
    MULL r4, r5, #3
;;
    BRL r10, b0
;;
    HALT
;;
";
        let c = config();
        let program = assemble(src, &c).unwrap();
        let text = crate::disassemble_program(&program, &c);
        let again = assemble(&text, &c).unwrap();
        assert_eq!(program.bundles(), again.bundles());
    }

    #[test]
    fn unknown_mnemonic_is_reported_with_line() {
        let err = assemble("    FROB r1, r2, r3\n;;\n", &config()).unwrap_err();
        assert!(matches!(err, AsmError::UnknownMnemonic { line: 1, .. }));
    }

    #[test]
    fn wrong_operand_count_is_reported() {
        let err = assemble("    ADD r1, r2\n;;\n", &config()).unwrap_err();
        assert!(
            matches!(
                err,
                AsmError::WrongOperandCount {
                    expected: 3,
                    found: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn oversubscribed_bundle_is_rejected() {
        // Five instructions exceed the 4-wide issue.
        let src = "    ADD r1, r2, r3\n    ADD r4, r5, r6\n    SUB r7, r8, r9\n    OR r10, r11, r12\n    AND r13, r14, r15\n;;\n";
        let err = assemble(src, &config()).unwrap_err();
        assert!(matches!(err, AsmError::IllegalBundle { .. }), "{err}");
    }

    #[test]
    fn two_loads_in_a_bundle_are_rejected() {
        let src = "    LW r1, r2, #0\n    LW r3, r4, #0\n;;\n";
        let err = assemble(src, &config()).unwrap_err();
        assert!(matches!(err, AsmError::IllegalBundle { .. }));
    }

    #[test]
    fn undefined_label_is_reported() {
        let err = assemble("    PBR b1, @nowhere\n;;\n", &config()).unwrap_err();
        assert!(matches!(err, AsmError::UnknownLabel { .. }));
    }

    #[test]
    fn duplicate_label_is_reported() {
        let err = assemble("x:\n    NOP\n;;\nx:\n    NOP\n;;\n", &config()).unwrap_err();
        assert!(matches!(err, AsmError::DuplicateLabel { line: 4, .. }));
    }

    #[test]
    fn unterminated_bundle_is_reported() {
        let err = assemble("    NOP\n", &config()).unwrap_err();
        assert!(matches!(err, AsmError::UnterminatedBundle { line: 1 }));
    }

    #[test]
    fn empty_bundle_is_reported() {
        let err = assemble(";;\n", &config()).unwrap_err();
        assert!(matches!(err, AsmError::EmptyBundle { line: 1 }));
    }

    #[test]
    fn feature_violations_surface_as_isa_errors() {
        let c = Config::builder()
            .without_alu_feature(epic_config::AluFeature::Divide)
            .build()
            .unwrap();
        let err = assemble("    DIV r1, r2, r3\n;;\n", &c).unwrap_err();
        assert!(matches!(err, AsmError::Isa { line: 1, .. }));
    }

    #[test]
    fn custom_mnemonics_come_from_the_configuration() {
        let c = Config::builder()
            .custom_op(epic_config::CustomOp::new(
                "sha_rotr",
                epic_config::CustomSemantics::RotateRight,
            ))
            .build()
            .unwrap();
        let program = assemble("    sha_rotr r1, r2, #13\n;;\n", &c).unwrap();
        assert_eq!(program.bundles()[0][0].opcode, Opcode::Custom(0));
        // And rejected on a machine without it.
        assert!(assemble("    sha_rotr r1, r2, #13\n;;\n", &config()).is_err());
    }

    #[test]
    fn issue_width_controls_padding() {
        let c = Config::builder().issue_width(2).build().unwrap();
        let program = assemble("    NOP\n;;\n", &c).unwrap();
        assert_eq!(program.bundles()[0].len(), 2);
    }

    #[test]
    fn entry_directive_selects_the_start_bundle() {
        let src = "\
.entry second
first:
    NOP
;;
second:
    HALT
;;
";
        let program = assemble(src, &config()).unwrap();
        assert_eq!(program.entry(), 1);
    }
}
