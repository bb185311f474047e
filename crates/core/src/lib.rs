//! The customisable EPIC processor and its tools, as one library.
//!
//! This crate is the front door of the reproduction of *"Customisable
//! EPIC Processor: Architecture and Tools"* (DATE 2004). It re-exports
//! the subsystem crates and adds the glue the paper's evaluation needs:
//!
//! * [`Toolchain`] — the compile → assemble → load → simulate pipeline
//!   for one processor configuration (the Trimaran + assembler + cycle
//!   simulator flow of §4–5);
//! * [`baseline`](run_sa110) — the same IR through the SA-110 code
//!   generator and timing model (the SimIt-ARM role);
//! * [`experiments`] — runners that regenerate Table 1, Figs. 3–5 and the
//!   §5.1 resource table, verifying every simulated output against the
//!   workload's golden model as they go;
//! * [`explore`] — design-space exploration across configurations
//!   (performance/area trade-offs, §1 and §3.3).
//!
//! # Examples
//!
//! Compile and run a small program on a 2-ALU machine:
//!
//! ```
//! use epic_core::{Toolchain};
//! use epic_config::Config;
//! use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
//!
//! let program = Program::new().function(
//!     FunctionDef::new("main", [] as [&str; 0])
//!         .body([Stmt::ret(Expr::lit(6) * Expr::lit(7))]),
//! );
//! let module = epic_ir::lower::lower(&program)?;
//! let toolchain = Toolchain::new(Config::builder().num_alus(2).build()?);
//! let run = toolchain.run_module(&module, "main", &[], &[])?;
//! assert_eq!(run.return_value(), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod explore;
mod front;
mod toolchain;

pub use toolchain::{
    run_sa110, ArmRun, EngineOutcome, EngineRun, EpicRun, PreparedProgram, Toolchain,
    ToolchainError,
};

pub use epic_area as area;
pub use epic_array as array;
pub use epic_asm as asm;
pub use epic_compiler as compiler;
pub use epic_config as config;
pub use epic_ir as ir;
pub use epic_isa as isa;
pub use epic_mdes as mdes;
pub use epic_sa110 as sa110;
pub use epic_sim as sim;
pub use epic_workloads as workloads;
