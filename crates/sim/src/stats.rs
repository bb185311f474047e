//! Simulation statistics.

use std::fmt;

/// Why a fetch/issue cycle stalled.
///
/// Mirrors the counters of [`StallBreakdown`]; the verifier's differential
/// oracle uses per-event records to attribute each stall to a bundle
/// address when cross-validating static diagnostics against the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// An operand was still in flight (see [`StallBreakdown::data_hazard`]).
    DataHazard,
    /// A functional unit was busy (see [`StallBreakdown::unit_busy`]).
    UnitBusy,
    /// The register-file port budget was exceeded
    /// (see [`StallBreakdown::regfile_port`]).
    RegfilePort,
    /// A taken branch flushed the fetch
    /// (see [`StallBreakdown::branch_flush`]).
    BranchFlush,
    /// Data accesses displaced instruction fetch
    /// (see [`StallBreakdown::memory_contention`]).
    MemoryContention,
}

impl StallCause {
    /// Every cause, in [`StallBreakdown`] field order.
    pub const ALL: [StallCause; 5] = [
        StallCause::DataHazard,
        StallCause::UnitBusy,
        StallCause::RegfilePort,
        StallCause::BranchFlush,
        StallCause::MemoryContention,
    ];

    /// Stable snake_case name (metric keys, trace labels, JSON fields).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallCause::DataHazard => "data_hazard",
            StallCause::UnitBusy => "unit_busy",
            StallCause::RegfilePort => "regfile_port",
            StallCause::BranchFlush => "branch_flush",
            StallCause::MemoryContention => "memory_contention",
        }
    }
}

impl StallBreakdown {
    /// Reads the counter for one cause.
    #[must_use]
    pub fn by_cause(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::DataHazard => self.data_hazard,
            StallCause::UnitBusy => self.unit_busy,
            StallCause::RegfilePort => self.regfile_port,
            StallCause::BranchFlush => self.branch_flush,
            StallCause::MemoryContention => self.memory_contention,
        }
    }
}

/// Stall cycles broken down by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Issue waited for an operand still in flight (load/divide/multiply
    /// latency the compiler did not cover).
    pub data_hazard: u64,
    /// Issue waited for a busy functional unit (the blocking divider).
    pub unit_busy: u64,
    /// Issue waited because the bundle needed more register-file port
    /// operations than the controller provides per cycle (§3.2:
    /// "Exceeding this limit would result in processor stall").
    pub regfile_port: u64,
    /// Fetch cycles flushed by taken branches.
    pub branch_flush: u64,
    /// Fetch cycles lost to data accesses on the shared memory controller
    /// (§3.2: the four banks at 2× clock exactly cover a 4-wide fetch, so
    /// every data access displaces half a processor cycle of fetch).
    pub memory_contention: u64,
}

impl StallBreakdown {
    /// Total stall cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.data_hazard
            + self.unit_busy
            + self.regfile_port
            + self.branch_flush
            + self.memory_contention
    }
}

/// Execution statistics of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Processor cycles elapsed.
    pub cycles: u64,
    /// Bundles issued (each occupies the execute stage for one cycle).
    pub bundles: u64,
    /// Instructions issued, `NOP` padding excluded.
    pub instructions: u64,
    /// Issued instructions whose guard was false (squashed at WB).
    pub squashed: u64,
    /// `NOP` slots issued (the issue-width padding of the assembler).
    pub nops: u64,
    /// Stall cycles by cause.
    pub stalls: StallBreakdown,
    /// Data-memory loads performed.
    pub loads: u64,
    /// Data-memory stores performed.
    pub stores: u64,
    /// Cycles in which each ALU instance executed (summed over instances).
    pub alu_busy_cycles: u64,
    /// Cycles in which the LSU executed.
    pub lsu_busy_cycles: u64,
    /// Cycles in which the CMPU executed.
    pub cmpu_busy_cycles: u64,
    /// Cycles in which the BRU executed.
    pub bru_busy_cycles: u64,
}

impl SimStats {
    /// Committed instructions per cycle (squashed instructions excluded).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.instructions - self.squashed) as f64 / self.cycles as f64
        }
    }

    /// Average issued instructions per bundle.
    #[must_use]
    pub fn bundle_fill(&self) -> f64 {
        if self.bundles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.bundles as f64
        }
    }

    /// Utilisation of the ALU array (busy instance-cycles over
    /// `num_alus × cycles`).
    #[must_use]
    pub fn alu_utilisation(&self, num_alus: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.alu_busy_cycles as f64 / (self.cycles as f64 * num_alus as f64)
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles              {}", self.cycles)?;
        writeln!(f, "bundles             {}", self.bundles)?;
        writeln!(
            f,
            "instructions        {} ({} squashed, {} nop slots)",
            self.instructions, self.squashed, self.nops
        )?;
        writeln!(f, "ipc                 {:.3}", self.ipc())?;
        writeln!(
            f,
            "stalls              {} (data {}, unit {}, ports {}, flush {}, mem {})",
            self.stalls.total(),
            self.stalls.data_hazard,
            self.stalls.unit_busy,
            self.stalls.regfile_port,
            self.stalls.branch_flush,
            self.stalls.memory_contention
        )?;
        write!(
            f,
            "memory              {} loads, {} stores",
            self.loads, self.stores
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let stats = SimStats {
            cycles: 100,
            bundles: 80,
            instructions: 200,
            squashed: 20,
            alu_busy_cycles: 150,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 1.8).abs() < 1e-9);
        assert!((stats.bundle_fill() - 2.5).abs() < 1e-9);
        assert!((stats.alu_utilisation(4) - 0.375).abs() < 1e-9);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn display_mentions_the_essentials() {
        let text = SimStats::default().to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("stalls"));
    }
}
