//! The shared micro-op semantics layer.
//!
//! Both execution engines in this crate — the decode-once
//! [`crate::Simulator`] (its per-cycle loop and the write-buffered path
//! of its threaded loop) and the interpretive
//! [`crate::ReferenceSimulator`] oracle — execute architectural
//! operations through this one module: [`decode_action`]
//! maps an [`Instruction`] to its resolved [`Action`], and
//! [`execute_op`] applies one guarded action to the machine state with
//! the contract both engines previously hand-synchronised:
//!
//! * all reads of a bundle see pre-bundle state — effects are buffered
//!   as [`Write`]s and applied together by [`apply_writes`];
//! * a false guard squashes at write-back (`BRCF` is the one operation
//!   taken on a false guard and squashed by neither polarity);
//! * memory traffic counts against the shared controller
//!   (`mem_debt`) and the statistics the moment it happens, with the
//!   dismissible `LWS` converting faults to zero;
//! * writes to `p0` are dropped, and ALU results are masked to the
//!   customised datapath width.
//!
//! The forwarding-visible write timing shares the same home:
//! [`gpr_ready_after`] is the single definition of how many cycles after
//! execute a result becomes readable, consumed by the decoder's
//! pre-baked latencies and the reference engine's per-cycle issue loop.

use crate::error::SimError;
use crate::exec::{eval_alu_basic, eval_cmp};
use crate::memory::Memory;
use crate::stats::SimStats;
use crate::trace::TraceSink;
use epic_config::{Config, CustomOp};
use epic_isa::{CmpCond, Dest, Instruction, Opcode, Operand};

/// A source operand resolved at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// Read a general-purpose register.
    Gpr(u16),
    /// An immediate (literals encode as the paper's short-literal field).
    Lit(u32),
    /// Absent operand: reads as zero, like the interpretive core.
    Zero,
}

impl Src {
    fn from_operand(operand: &Operand) -> Src {
        match operand {
            Operand::Gpr(r) => Src::Gpr(r.0),
            Operand::Lit(v) => Src::Lit(*v as u32),
            _ => Src::Zero,
        }
    }
}

/// How a sub-word load widens into the 32-bit datapath.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Extend {
    /// Use the raw (zero-extended) value.
    None,
    /// Sign-extend from bit 7 (`LB`).
    Byte,
    /// Sign-extend from bit 15 (`LH`).
    Half,
}

impl Extend {
    pub(crate) fn apply(self, raw: u32) -> u32 {
        match self {
            Extend::None => raw,
            Extend::Byte => i32::from(raw as u8 as i8) as u32,
            Extend::Half => i32::from(raw as u16 as i16) as u32,
        }
    }
}

/// One operation's execute-stage work, fully resolved at decode time.
///
/// `None` destinations mean the encoding carried no writable register of
/// the expected kind; the write is dropped, as in the interpretive core.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Action {
    /// Fixed-function ALU operation (`ADD` … `MOVIL`).
    Alu {
        /// Opcode for `eval_alu_basic` (never `Custom`).
        opcode: Opcode,
        /// Destination GPR.
        dest: Option<u16>,
        /// First source.
        a: Src,
        /// Second source.
        b: Src,
    },
    /// Custom ALU slot, validated against the registry at decode time.
    ///
    /// The action stays `Copy` by carrying the registry index; engines
    /// hand the registered ops to [`execute_op`] via
    /// [`ExecCtx::custom_ops`].
    CustomAlu {
        /// Index into the configuration's custom-op registry.
        custom: u16,
        /// Destination GPR.
        dest: Option<u16>,
        /// First source.
        a: Src,
        /// Second source.
        b: Src,
    },
    /// Two-target compare (`CMP_cc p_t, p_f, a, b`).
    Cmp {
        /// The comparison condition.
        cond: CmpCond,
        /// Predicate receiving the outcome (`None` = discarded / `p0`).
        if_true: Option<u16>,
        /// Predicate receiving the complement.
        if_false: Option<u16>,
        /// First source.
        a: Src,
        /// Second source.
        b: Src,
    },
    /// `PRED_SET` / `PRED_CLR`.
    PredPut {
        /// Destination predicate.
        dest: Option<u16>,
        /// The constant written.
        value: bool,
    },
    /// `MOVGP`: predicate := (gpr != 0).
    MovGp {
        /// Destination predicate.
        dest: Option<u16>,
        /// Source value.
        a: Src,
    },
    /// `MOVPG`: gpr := predicate.
    MovPg {
        /// Destination GPR.
        dest: Option<u16>,
        /// Source predicate (`None` reads as 0).
        pred: Option<u16>,
    },
    /// Memory load (`LW`/`LH`/`LHU`/`LB`/`LBU`/`LWS`).
    Load {
        /// Destination GPR.
        dest: Option<u16>,
        /// Base address source.
        base: Src,
        /// Offset source.
        offset: Src,
        /// Access width in bytes.
        width: u32,
        /// Sub-word widening.
        extend: Extend,
        /// `LWS`: faults yield 0 (HPL-PD's dismissible load).
        dismissible: bool,
    },
    /// Memory store (`SW`/`SH`/`SB`).
    Store {
        /// GPR holding the stored value (`None` stores 0).
        value: Option<u16>,
        /// Base address source.
        base: Src,
        /// Offset source.
        offset: Src,
        /// Access width in bytes.
        width: u32,
    },
    /// `PBR`: prepare a branch target register.
    Pbr {
        /// Destination BTR.
        dest: Option<u16>,
        /// The target bundle address.
        a: Src,
    },
    /// `BR`/`BRCT`/`BRCF`/`BRL` through a BTR.
    Branch {
        /// The BTR read for the target (`None` redirects to bundle 0).
        target: Option<u16>,
        /// Link GPR (`BRL` only; receives the return bundle address).
        link: Option<u16>,
        /// `BRCF`: taken when the guard is FALSE, and never squashed.
        on_false: bool,
    },
    /// `HALT`.
    Halt,
}

/// One non-`NOP` operation: its guard predicate and resolved action.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedOp {
    /// Guard predicate index (0 = hard-wired true).
    pub guard: u16,
    /// The execute-stage work.
    pub action: Action,
}

/// A buffered write-back (all reads of a bundle see pre-bundle state).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Write {
    /// General-purpose register write.
    Gpr(u16, u32),
    /// Predicate write (dropped for `p0` at apply time).
    Pred(u16, bool),
    /// Branch target register write.
    Btr(u16, u32),
}

/// Cycles after the execute stage until a GPR result is readable: the
/// operation's latency, plus one when the register-file controller does
/// not forward. The decoder bakes this into its write bookings; the
/// reference engine re-derives it per cycle — from the same definition.
pub(crate) fn gpr_ready_after(latency: u64, forwarding: bool) -> u64 {
    latency + u64::from(!forwarding)
}

/// Resolves an instruction's execute-stage work against a configuration.
///
/// # Errors
///
/// Returns [`SimError::IllegalBundle`] when the instruction names an
/// unregistered custom-op slot.
pub(crate) fn decode_action(
    config: &Config,
    pc: u32,
    instr: &Instruction,
) -> Result<Action, SimError> {
    let gpr_dest = match instr.dest1 {
        Dest::Gpr(r) => Some(r.0),
        _ => None,
    };
    let pred_dest = match instr.dest1 {
        Dest::Pred(p) if p.0 != 0 => Some(p.0),
        _ => None,
    };
    let a = Src::from_operand(&instr.src1);
    let b = Src::from_operand(&instr.src2);
    let branch_target = match instr.src1 {
        Operand::Btr(btr) => Some(btr.0),
        _ => None,
    };

    Ok(match instr.opcode {
        Opcode::Cmp(cond) => Action::Cmp {
            cond,
            if_true: pred_dest,
            if_false: match instr.dest2 {
                Dest::Pred(p) if p.0 != 0 => Some(p.0),
                _ => None,
            },
            a,
            b,
        },
        Opcode::PredSet | Opcode::PredClr => Action::PredPut {
            dest: pred_dest,
            value: instr.opcode == Opcode::PredSet,
        },
        Opcode::MovGp => Action::MovGp { dest: pred_dest, a },
        Opcode::MovPg => Action::MovPg {
            dest: gpr_dest,
            pred: match instr.src1 {
                Operand::Pred(p) => Some(p.0),
                _ => None,
            },
        },
        op if op.is_load() => Action::Load {
            dest: gpr_dest,
            base: a,
            offset: b,
            width: match op {
                Opcode::Lw | Opcode::LwS => 4,
                Opcode::Lh | Opcode::Lhu => 2,
                _ => 1,
            },
            extend: match op {
                Opcode::Lh => Extend::Half,
                Opcode::Lb => Extend::Byte,
                _ => Extend::None,
            },
            dismissible: op == Opcode::LwS,
        },
        op if op.is_store() => Action::Store {
            value: gpr_dest,
            base: a,
            offset: b,
            width: match op {
                Opcode::Sw => 4,
                Opcode::Sh => 2,
                _ => 1,
            },
        },
        Opcode::Pbr => Action::Pbr {
            dest: match instr.dest1 {
                Dest::Btr(btr) => Some(btr.0),
                _ => None,
            },
            a,
        },
        Opcode::Br | Opcode::Brct => Action::Branch {
            target: branch_target,
            link: None,
            on_false: false,
        },
        Opcode::Brcf => Action::Branch {
            target: branch_target,
            link: None,
            on_false: true,
        },
        Opcode::Brl => Action::Branch {
            target: branch_target,
            link: gpr_dest,
            on_false: false,
        },
        Opcode::Halt => Action::Halt,
        Opcode::Custom(i) => {
            if config.custom_ops().get(i as usize).is_none() {
                return Err(SimError::IllegalBundle {
                    pc,
                    message: format!("custom slot {i} is not registered in the configuration"),
                });
            }
            Action::CustomAlu {
                custom: i,
                dest: gpr_dest,
                a,
                b,
            }
        }
        // Remaining opcodes are the fixed-function ALU class.
        opcode => Action::Alu {
            opcode,
            dest: gpr_dest,
            a,
            b,
        },
    })
}

/// The split-borrow view of one engine's architectural state that
/// [`execute_op`] works on.
///
/// Register files are borrowed immutably — the type system enforces the
/// reads-see-pre-bundle-state contract; effects land in the caller's
/// [`Write`] buffer. Memory, statistics, the memory-controller debt and
/// the halt latch mutate in place, exactly as the hardware's execute
/// stage would.
pub(crate) struct ExecCtx<'a> {
    /// General-purpose registers (pre-bundle values).
    pub gprs: &'a [u32],
    /// Predicate registers (pre-bundle values; index 0 is hard-wired).
    pub preds: &'a [bool],
    /// Branch target registers (pre-bundle values).
    pub btrs: &'a [u32],
    /// The data memory (stores apply immediately).
    pub memory: &'a mut Memory,
    /// Statistics: squash/load/store counters tick as effects happen.
    pub stats: &'a mut SimStats,
    /// Outstanding fetch-bandwidth debt in controller half-cycles.
    pub mem_debt: &'a mut u32,
    /// Set when `HALT` executes.
    pub halted: &'a mut bool,
    /// Result mask of the customised datapath width.
    pub datapath_mask: u32,
    /// Datapath width handed to custom-op semantics.
    pub custom_width: u32,
    /// Whether data accesses displace instruction fetch (§3.2).
    pub mem_contention: bool,
    /// The configuration's custom-op registry, indexed by
    /// [`Action::CustomAlu`]'s slot number (validated at decode).
    pub custom_ops: &'a [CustomOp],
}

impl ExecCtx<'_> {
    fn pred(&self, index: u16) -> bool {
        index == 0 || self.preds[index as usize]
    }

    fn src(&self, src: Src) -> u32 {
        match src {
            Src::Gpr(r) => self.gprs[r as usize],
            Src::Lit(v) => v,
            Src::Zero => 0,
        }
    }
}

/// Executes one guarded operation: squash on a false guard (with `BRCF`'s
/// inverted-polarity exception), buffer register effects into `writes`,
/// apply memory effects immediately, record a taken branch in `redirect`.
///
/// # Errors
///
/// Returns [`SimError::MemoryFault`] when a non-dismissible access
/// faults; the caller decides what happens to the buffered writes (both
/// engines discard them, keeping the faulting bundle unretired).
pub(crate) fn execute_op<S: TraceSink>(
    ctx: &mut ExecCtx<'_>,
    op: DecodedOp,
    bpc: u32,
    cycle: u64,
    writes: &mut Vec<Write>,
    redirect: &mut Option<u32>,
    sink: &mut S,
) -> Result<(), SimError> {
    let guard = ctx.pred(op.guard);

    // BRCF branches when its predicate is FALSE; it is the one
    // operation not squashed by a false guard.
    if let Action::Branch {
        target,
        link,
        on_false,
    } = op.action
    {
        if guard != on_false {
            *redirect = Some(target.map_or(0, |b| ctx.btrs[b as usize]));
            if let Some(r) = link {
                writes.push(Write::Gpr(r, bpc + 1));
            }
        } else if !on_false {
            ctx.stats.squashed += 1;
            sink.squash(cycle, bpc);
        }
        return Ok(());
    }
    if !guard {
        ctx.stats.squashed += 1;
        sink.squash(cycle, bpc);
        return Ok(());
    }

    match op.action {
        Action::Alu { opcode, dest, a, b } => {
            let value = eval_alu_basic(opcode, ctx.src(a), ctx.src(b));
            if let Some(r) = dest {
                writes.push(Write::Gpr(r, value & ctx.datapath_mask));
            }
        }
        Action::CustomAlu { custom, dest, a, b } => {
            let value = ctx.custom_ops[custom as usize].semantics().evaluate(
                u64::from(ctx.src(a)),
                u64::from(ctx.src(b)),
                ctx.custom_width,
            ) as u32;
            if let Some(r) = dest {
                writes.push(Write::Gpr(r, value & ctx.datapath_mask));
            }
        }
        Action::Cmp {
            cond,
            if_true,
            if_false,
            a,
            b,
        } => {
            let outcome = eval_cmp(cond, ctx.src(a), ctx.src(b));
            if let Some(p) = if_true {
                writes.push(Write::Pred(p, outcome));
            }
            if let Some(p) = if_false {
                writes.push(Write::Pred(p, !outcome));
            }
        }
        Action::PredPut { dest, value } => {
            if let Some(p) = dest {
                writes.push(Write::Pred(p, value));
            }
        }
        Action::MovGp { dest, a } => {
            if let Some(p) = dest {
                writes.push(Write::Pred(p, ctx.src(a) != 0));
            }
        }
        Action::MovPg { dest, pred } => {
            let value = pred.map_or(0, |p| u32::from(ctx.pred(p)));
            if let Some(r) = dest {
                writes.push(Write::Gpr(r, value));
            }
        }
        Action::Load {
            dest,
            base,
            offset,
            width,
            extend,
            dismissible,
        } => {
            let address = ctx.src(base).wrapping_add(ctx.src(offset));
            let raw = if dismissible {
                // Dismissible load: faults yield 0.
                ctx.memory.load(bpc, address, width).unwrap_or(0)
            } else {
                ctx.memory.load(bpc, address, width)?
            };
            ctx.stats.loads += 1;
            sink.mem_op(cycle, bpc, false);
            if ctx.mem_contention {
                *ctx.mem_debt += 1;
            }
            if let Some(r) = dest {
                writes.push(Write::Gpr(r, extend.apply(raw)));
            }
        }
        Action::Store {
            value,
            base,
            offset,
            width,
        } => {
            let address = ctx.src(base).wrapping_add(ctx.src(offset));
            let stored = value.map_or(0, |r| ctx.gprs[r as usize]);
            ctx.memory.store(bpc, address, width, stored)?;
            ctx.stats.stores += 1;
            sink.mem_op(cycle, bpc, true);
            if ctx.mem_contention {
                *ctx.mem_debt += 1;
            }
        }
        Action::Pbr { dest, a } => {
            let value = ctx.src(a);
            if let Some(btr) = dest {
                writes.push(Write::Btr(btr, value));
            }
        }
        Action::Halt => {
            *ctx.halted = true;
        }
        Action::Branch { .. } => unreachable!("handled before the guard check"),
    }
    Ok(())
}

/// Applies a bundle's buffered writes in order (`p0` writes are dropped),
/// draining the buffer so callers can reuse its allocation.
pub(crate) fn apply_writes(
    gprs: &mut [u32],
    preds: &mut [bool],
    btrs: &mut [u32],
    writes: &mut Vec<Write>,
) {
    for write in writes.drain(..) {
        match write {
            Write::Gpr(r, v) => gprs[r as usize] = v,
            Write::Pred(p, v) => {
                if p != 0 {
                    preds[p as usize] = v;
                }
            }
            Write::Btr(b, v) => btrs[b as usize] = v,
        }
    }
}
