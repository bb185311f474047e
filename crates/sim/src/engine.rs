//! Engine selection.

use std::fmt;
use std::str::FromStr;

/// Which execution engine simulates a program.
///
/// Both are architecturally bit-identical (stats, registers, memory);
/// they differ only in wall-clock throughput. See the README's
/// engine-selection table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The interpret-every-cycle golden model
    /// ([`crate::ReferenceSimulator`]).
    Reference,
    /// The production engine ([`crate::Simulator`]): per-cycle when
    /// stepped or observed, and threaded on an unobserved run, whose
    /// per-cycle dispatcher runs translated basic blocks wherever their
    /// entry caps hold.
    #[default]
    Threaded,
}

impl Engine {
    /// All engines, oracle first.
    #[must_use]
    pub fn all() -> [Engine; 2] {
        [Engine::Reference, Engine::Threaded]
    }

    /// The command-line name (`reference` / `threaded`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
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
            "threaded" => Ok(Engine::Threaded),
            other => Err(format!(
                "unknown engine `{other}` (expected `reference` or `threaded`)"
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
        for retired in ["jit", "block", "decoded"] {
            assert!(retired.parse::<Engine>().is_err(), "{retired}");
        }
    }
}
