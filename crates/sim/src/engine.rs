//! Engine selection.

use std::fmt;
use std::str::FromStr;

/// Which execution engine simulates a program.
///
/// All three are architecturally bit-identical (stats, registers,
/// memory); they differ only in wall-clock throughput and in how much
/// work happens at load time. See the README's engine-selection table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The interpret-every-cycle golden model
    /// ([`crate::ReferenceSimulator`]).
    Reference,
    /// The decode-once per-cycle engine ([`crate::Simulator`]).
    #[default]
    Decoded,
    /// The threaded-code engine ([`crate::ThreadedSimulator`]):
    /// straight-line basic blocks with statically folded cycle
    /// accounting, translated into step streams with block chaining and
    /// trace linking, falling back to the decoded engine per bundle.
    Threaded,
}

impl Engine {
    /// All engines, in oracle-to-fastest order.
    #[must_use]
    pub fn all() -> [Engine; 3] {
        [Engine::Reference, Engine::Decoded, Engine::Threaded]
    }

    /// The command-line name (`reference` / `decoded` / `threaded`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Decoded => "decoded",
            Engine::Threaded => "threaded",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(Engine::Reference),
            "decoded" => Ok(Engine::Decoded),
            "threaded" => Ok(Engine::Threaded),
            other => Err(format!(
                "unknown engine `{other}` (expected `reference`, `decoded` or `threaded`)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for engine in Engine::all() {
            assert_eq!(engine.name().parse::<Engine>(), Ok(engine));
        }
        for retired in ["jit", "block"] {
            assert!(retired.parse::<Engine>().is_err(), "{retired}");
        }
    }
}
