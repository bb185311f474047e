//! The optimising EPIC compiler (Trimaran stand-in).
//!
//! The paper adapts the Trimaran framework: "the IMPACT module is employed
//! to perform machine independent optimisations. The elcor module will
//! then statically schedule the instructions by performing dependence
//! analysis and resource conflict avoidance", driven by an HMDES machine
//! description (§4.1). This crate rebuilds that pipeline from scratch:
//!
//! 1. **IMPACT-style IR passes** ([`passes`]): function inlining, constant
//!    folding and propagation, algebraic simplification and strength
//!    reduction, copy propagation, local common-subexpression elimination
//!    and global dead-code elimination.
//! 2. **Instruction selection** ([`select`]): IR → machine IR over virtual
//!    registers and virtual predicates, fusing comparisons into
//!    compare-to-predicate + branch-on-condition pairs and matching
//!    configured custom instructions (e.g. a rotate).
//! 3. **If-conversion** ([`ifconv`]): small diamonds and triangles become
//!    straight-line predicated code — the hallmark EPIC transformation
//!    ("predicated instructions transform control dependence to data
//!    dependence", paper §2).
//! 4. **Register allocation** ([`regalloc`]): linear scan over the
//!    configured GPR and predicate files, spilling to the stack frame, with
//!    call-crossing values saved around call sites.
//! 5. **List scheduling** ([`sched`]): dependence-DAG scheduling into issue
//!    bundles against the [`epic_mdes::MachineDescription`] — unit counts,
//!    latencies, divider occupancy and the register-file port budget.
//! 6. **Emission** ([`emit`]): bundle-structured assembly text for
//!    `epic-asm`, labels and all.
//!
//! Every compile snapshots every stage into a [`trace::PipelineTrace`]
//! for translation validation (`epic-tv`) and runs `epic-verify`'s error
//! pass over the output; no [`Options`] field turns either off.
//! [`Compiler::compile_mutated`] applies a [`Mutation`]'s per-stage
//! edits inside those same stages and skips the verifier, so the
//! seeded-miscompile corpus corrupts the pipeline that ships.
//!
//! # Examples
//!
//! ```
//! use epic_config::Config;
//! use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
//! use epic_compiler::Compiler;
//!
//! let program = Program::new().function(
//!     FunctionDef::new("main", [] as [&str; 0])
//!         .body([Stmt::ret(Expr::lit(21) + Expr::lit(21))]),
//! );
//! let module = epic_ir::lower::lower(&program)?;
//! let compiled = Compiler::new(Config::default()).compile(&module)?;
//! assert!(compiled.assembly().contains("_start"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
pub mod emit;
mod error;
pub mod fuse;
pub mod ifconv;
pub mod mir;
pub mod passes;
pub mod regalloc;
pub mod sched;
pub mod select;
pub mod suggest;
pub mod superblock;
pub mod trace;

pub use driver::{
    machine_family, CompileStats, CompiledProgram, Compiler, FrontHalf, Mutation, Options,
};
pub use error::CompileError;
