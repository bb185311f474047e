//! Machine-code encoding and decoding.
//!
//! Instructions serialise to fixed-width big-endian words ("a big-endian
//! architecture is adopted … each individual instruction has a fixed width
//! of 64 bits, regardless of its type", paper §3.1). The field layout is
//! taken from the configuration's [`InstructionFormat`], so widened formats
//! (more registers, wider datapath) encode and decode with the same code
//! path.
//!
//! Source fields use their most significant bit as a literal flag
//! (1 = sign-extended literal payload, 0 = register index), except for
//! `MOVIL`, whose two raw source fields concatenate into one
//! datapath-width constant.

use crate::error::IsaError;
use crate::instr::{Btr, Dest, Gpr, Instruction, Operand, PredReg};
use crate::op::{DestKind, Opcode, SrcKind};
use epic_config::{Config, InstructionFormat};

/// Encodes an instruction into freshly allocated big-endian bytes.
///
/// The length equals `config.instruction_format().width_bytes()`.
///
/// # Errors
///
/// Returns any [`IsaError`] raised by [`Instruction::validate`]; an
/// instruction that validates always encodes.
///
/// # Examples
///
/// ```
/// use epic_config::Config;
/// use epic_isa::{encode, Instruction};
///
/// let config = Config::default();
/// let bytes = encode(&Instruction::halt(), &config)?;
/// assert_eq!(bytes.len(), 8);
/// # Ok::<(), epic_isa::IsaError>(())
/// ```
pub fn encode(instr: &Instruction, config: &Config) -> Result<Vec<u8>, IsaError> {
    let mut buf = vec![0u8; config.instruction_format().width_bytes()];
    encode_into(instr, config, &mut buf)?;
    Ok(buf)
}

/// Encodes an instruction into a caller-provided buffer.
///
/// # Errors
///
/// Returns [`IsaError::BufferSize`] when `buf` is not exactly the
/// configured instruction width, or any validation error.
pub fn encode_into(instr: &Instruction, config: &Config, buf: &mut [u8]) -> Result<(), IsaError> {
    let format = config.instruction_format();
    if buf.len() != format.width_bytes() {
        return Err(IsaError::BufferSize {
            expected: format.width_bytes(),
            found: buf.len(),
        });
    }
    instr.validate(config)?;

    let mut word: u128 = 0;
    let [o_off, d1_off, d2_off, s1_off, s2_off, p_off] = format.field_offsets();

    put(
        &mut word,
        format,
        o_off,
        format.opcode_bits(),
        u128::from(instr.opcode.encoding()),
    );
    put(
        &mut word,
        format,
        d1_off,
        format.dest_bits(),
        u128::from(dest_index(instr.dest1)),
    );
    put(
        &mut word,
        format,
        d2_off,
        format.dest_bits(),
        u128::from(dest_index(instr.dest2)),
    );

    if instr.opcode == Opcode::Movil {
        // The raw SRC1:SRC2 fields hold one datapath-width constant,
        // left-padded with zeros, SRC1 carrying the high part.
        let width = config.datapath_width();
        let value = (instr.src1_literal() as u128) & mask(width as usize);
        let total = 2 * format.src_bits();
        let combined = value; // already < 2^total by validation
        put(
            &mut word,
            format,
            s1_off,
            format.src_bits(),
            combined >> format.src_bits(),
        );
        put(
            &mut word,
            format,
            s2_off,
            format.src_bits(),
            combined & mask(format.src_bits()),
        );
        debug_assert!(total >= width as usize);
    } else {
        put(
            &mut word,
            format,
            s1_off,
            format.src_bits(),
            src_field(instr.src1, format),
        );
        put(
            &mut word,
            format,
            s2_off,
            format.src_bits(),
            src_field(instr.src2, format),
        );
    }
    put(
        &mut word,
        format,
        p_off,
        format.pred_bits(),
        u128::from(instr.pred.0),
    );

    for (i, byte) in buf.iter_mut().enumerate() {
        let shift = (format.width_bytes() - 1 - i) * 8;
        *byte = ((word >> shift) & 0xFF) as u8;
    }
    Ok(())
}

/// Decodes one big-endian instruction word.
///
/// Decoding is structural: operand kinds are reconstructed from the opcode
/// signature, but feature availability is not checked (use
/// [`Instruction::validate`] for that).
///
/// # Errors
///
/// Returns [`IsaError::BufferSize`] for a wrong-length buffer,
/// [`IsaError::UnknownOpcode`] for an unassigned opcode value, and
/// [`IsaError::OperandKind`] when a register-kind source field carries a
/// literal flag.
pub fn decode(bytes: &[u8], config: &Config) -> Result<Instruction, IsaError> {
    let format = config.instruction_format();
    if bytes.len() != format.width_bytes() {
        return Err(IsaError::BufferSize {
            expected: format.width_bytes(),
            found: bytes.len(),
        });
    }
    let mut word: u128 = 0;
    for &b in bytes {
        word = (word << 8) | u128::from(b);
    }

    let [o_off, d1_off, d2_off, s1_off, s2_off, p_off] = format.field_offsets();
    let opcode_val = get(word, format, o_off, format.opcode_bits()) as u16;
    let opcode = Opcode::from_encoding(opcode_val)?;
    let sig = opcode.signature();

    let d1 = get(word, format, d1_off, format.dest_bits()) as u16;
    let d2 = get(word, format, d2_off, format.dest_bits()) as u16;
    let s1 = get(word, format, s1_off, format.src_bits());
    let s2 = get(word, format, s2_off, format.src_bits());
    let pred = get(word, format, p_off, format.pred_bits()) as u16;

    let (src1, src2) = if opcode == Opcode::Movil {
        let combined = (s1 << format.src_bits()) | s2;
        let width = config.datapath_width() as usize;
        let raw = combined & mask(width);
        // Sign-extend from the datapath width to i64.
        let signed = if width < 64 && raw & (1 << (width - 1)) != 0 {
            (raw as i128 - (1i128 << width)) as i64
        } else {
            raw as i64
        };
        (Operand::Lit(signed), Operand::None)
    } else {
        (
            decode_src(s1, sig.src1, opcode, "SRC1", format)?,
            decode_src(s2, sig.src2, opcode, "SRC2", format)?,
        )
    };

    Ok(Instruction {
        opcode,
        dest1: decode_dest(d1, sig.dest1),
        dest2: decode_dest(d2, sig.dest2),
        src1,
        src2,
        pred: PredReg(pred),
    })
}

impl Instruction {
    fn src1_literal(&self) -> i64 {
        match self.src1 {
            Operand::Lit(v) => v,
            _ => 0,
        }
    }
}

fn mask(bits: usize) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

fn put(word: &mut u128, format: &InstructionFormat, offset: usize, bits: usize, value: u128) {
    debug_assert!(
        value <= mask(bits),
        "field value {value:#x} exceeds {bits} bits"
    );
    let shift = format.width_bits() - offset - bits;
    *word |= (value & mask(bits)) << shift;
}

fn get(word: u128, format: &InstructionFormat, offset: usize, bits: usize) -> u128 {
    let shift = format.width_bits() - offset - bits;
    (word >> shift) & mask(bits)
}

fn dest_index(dest: Dest) -> u16 {
    match dest {
        Dest::None => 0,
        Dest::Gpr(Gpr(i)) => i,
        Dest::Pred(PredReg(i)) => i,
        Dest::Btr(Btr(i)) => i,
    }
}

fn src_field(src: Operand, format: &InstructionFormat) -> u128 {
    let literal_flag = 1u128 << format.src_payload_bits();
    match src {
        Operand::None => 0,
        Operand::Gpr(Gpr(i)) => u128::from(i),
        Operand::Btr(Btr(i)) => u128::from(i),
        Operand::Pred(PredReg(i)) => u128::from(i),
        Operand::Lit(v) => {
            let payload = (v as i128 as u128) & mask(format.src_payload_bits());
            literal_flag | payload
        }
    }
}

fn decode_src(
    field: u128,
    kind: SrcKind,
    opcode: Opcode,
    name: &'static str,
    format: &InstructionFormat,
) -> Result<Operand, IsaError> {
    let payload_bits = format.src_payload_bits();
    let is_literal = field >> payload_bits != 0;
    let payload = field & mask(payload_bits);
    let reg_only = || {
        if is_literal {
            Err(IsaError::OperandKind {
                opcode: opcode.mnemonic().into_owned(),
                field: name,
            })
        } else {
            Ok(payload as u16)
        }
    };
    Ok(match kind {
        SrcKind::None => Operand::None,
        SrcKind::GprOrLit => {
            if is_literal {
                // Sign-extend the payload.
                let signed = if payload & (1 << (payload_bits - 1)) != 0 {
                    (payload as i128 - (1i128 << payload_bits)) as i64
                } else {
                    payload as i64
                };
                Operand::Lit(signed)
            } else {
                Operand::Gpr(Gpr(payload as u16))
            }
        }
        SrcKind::Btr => Operand::Btr(Btr(reg_only()?)),
        SrcKind::Pred => Operand::Pred(PredReg(reg_only()?)),
        SrcKind::LongLit => unreachable!("MOVIL is decoded separately"),
    })
}

fn decode_dest(index: u16, kind: DestKind) -> Dest {
    match kind {
        DestKind::None => Dest::None,
        DestKind::Gpr | DestKind::GprRead => Dest::Gpr(Gpr(index)),
        DestKind::Pred => Dest::Pred(PredReg(index)),
        DestKind::Btr => Dest::Btr(Btr(index)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpCond;

    fn round_trip(instr: Instruction, config: &Config) {
        let bytes = encode(&instr, config).unwrap_or_else(|e| panic!("{instr}: {e}"));
        assert_eq!(bytes.len(), config.instruction_format().width_bytes());
        let back = decode(&bytes, config).unwrap_or_else(|e| panic!("{instr}: {e}"));
        assert_eq!(back, instr, "round trip mismatch for {instr}");
    }

    #[test]
    fn representative_instructions_round_trip() {
        let config = Config::default();
        let cases = [
            Instruction::alu3(
                Opcode::Add,
                Gpr(1),
                Operand::Gpr(Gpr(2)),
                Operand::Gpr(Gpr(3)),
            ),
            Instruction::alu3(Opcode::Sub, Gpr(63), Operand::Gpr(Gpr(0)), Operand::Lit(-1)),
            Instruction::alu3(Opcode::Shl, Gpr(5), Operand::Gpr(Gpr(5)), Operand::Lit(31))
                .with_pred(PredReg(7)),
            Instruction::alu2(Opcode::Move, Gpr(9), Operand::Lit(16383)),
            Instruction::alu2(Opcode::Abs, Gpr(9), Operand::Gpr(Gpr(4))),
            Instruction::movil(Gpr(3), -1),
            Instruction::movil(Gpr(3), 0x7FFF_FFFF),
            Instruction::movil(Gpr(3), i32::MIN as i64),
            Instruction::cmp(
                CmpCond::Geu,
                PredReg(1),
                PredReg(31),
                Operand::Gpr(Gpr(10)),
                Operand::Lit(42),
            ),
            Instruction::new(
                Opcode::PredSet,
                Dest::Pred(PredReg(4)),
                Dest::None,
                Operand::None,
                Operand::None,
            ),
            Instruction::load(Opcode::Lbu, Gpr(8), Operand::Gpr(Gpr(9)), Operand::Lit(-4)),
            Instruction::store(
                Opcode::Sh,
                Gpr(8),
                Operand::Gpr(Gpr(9)),
                Operand::Gpr(Gpr(10)),
            ),
            Instruction::pbr(Btr(15), Operand::Lit(12345)),
            Instruction::br(Btr(3)),
            Instruction::brct(Btr(3), PredReg(9)),
            Instruction::brcf(Btr(3), PredReg(9)),
            Instruction::brl(Gpr(1), Btr(2)),
            Instruction::nop(),
            Instruction::halt(),
        ];
        for instr in cases {
            round_trip(instr, &config);
        }
    }

    #[test]
    fn custom_ops_round_trip() {
        use epic_config::{CustomOp, CustomSemantics};
        let config = Config::builder()
            .custom_op(CustomOp::new("rotr", CustomSemantics::RotateRight))
            .build()
            .unwrap();
        round_trip(
            Instruction::alu3(
                Opcode::Custom(0),
                Gpr(1),
                Operand::Gpr(Gpr(2)),
                Operand::Lit(7),
            ),
            &config,
        );
    }

    #[test]
    fn widened_format_round_trips() {
        let config = Config::builder()
            .num_gprs(256)
            .num_pred_regs(64)
            .num_btrs(32)
            .build()
            .unwrap();
        assert!(config.instruction_format().width_bits() > 64);
        round_trip(
            Instruction::alu3(
                Opcode::Add,
                Gpr(255),
                Operand::Gpr(Gpr(128)),
                Operand::Lit(-100),
            ),
            &config,
        );
        round_trip(Instruction::movil(Gpr(200), -12345), &config);
    }

    #[test]
    fn sixteen_bit_datapath_movil_round_trips() {
        let config = Config::builder().datapath_width(16).build().unwrap();
        round_trip(Instruction::movil(Gpr(1), -32768), &config);
        round_trip(Instruction::movil(Gpr(1), 0x7FFF), &config);
    }

    #[test]
    fn big_endian_layout_is_stable() {
        // The opcode field occupies the most significant bits, so the ADD
        // encoding (class 0, ordinal 0) starts with a zero byte.
        let config = Config::default();
        let add = Instruction::alu3(
            Opcode::Add,
            Gpr(0),
            Operand::Gpr(Gpr(0)),
            Operand::Gpr(Gpr(0)),
        );
        let bytes = encode(&add, &config).unwrap();
        assert_eq!(bytes[0], 0);
        // HALT is BRU class (3) ordinal 5 -> gray(5)=7; top 15 bits are
        // 011_0000_0000_0111 followed by zeros.
        let halt = encode(&Instruction::halt(), &config).unwrap();
        assert_eq!(halt[0], 0b0110_0000);
        assert_eq!(halt[1], 0b0000_1110);
    }

    #[test]
    fn wrong_buffer_sizes_are_rejected() {
        let config = Config::default();
        let mut short = [0u8; 4];
        assert!(matches!(
            encode_into(&Instruction::nop(), &config, &mut short),
            Err(IsaError::BufferSize {
                expected: 8,
                found: 4
            })
        ));
        assert!(matches!(
            decode(&[0u8; 7], &config),
            Err(IsaError::BufferSize {
                expected: 8,
                found: 7
            })
        ));
    }

    #[test]
    fn invalid_instruction_does_not_encode() {
        let config = Config::default();
        let bad = Instruction::alu3(Opcode::Add, Gpr(200), Operand::Lit(0), Operand::Lit(0));
        assert!(encode(&bad, &config).is_err());
    }

    #[test]
    fn literal_flag_on_register_kind_is_rejected() {
        let config = Config::default();
        // Hand-craft a BR whose SRC1 field carries a literal flag.
        let mut bytes = encode(&Instruction::br(Btr(1)), &config).unwrap();
        // SRC1 starts at bit offset 27; its flag bit is the MSB of the
        // field -> bit position 27 from the top = byte 3, bit 4 (0x10).
        bytes[3] |= 0x10;
        assert!(matches!(
            decode(&bytes, &config),
            Err(IsaError::OperandKind { .. })
        ));
    }
}
