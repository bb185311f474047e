//! Engine selection.

use std::fmt;

/// Which execution engine simulates a program.
///
/// Both are architecturally bit-identical (stats, registers, memory);
/// they differ only in wall-clock throughput. See the README's
/// engine-selection table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The interpret-every-cycle golden model
    /// ([`crate::ReferenceSimulator`]).
    Reference,
    /// The production engine ([`crate::Simulator`]): per-cycle when
    /// stepped or observed, and threaded on an unobserved run, whose
    /// per-cycle dispatcher runs translated basic blocks wherever their
    /// entry caps hold.
    Threaded,
}

impl Engine {
    /// All engines, oracle first.
    #[must_use]
    pub fn all() -> [Engine; 2] {
        [Engine::Reference, Engine::Threaded]
    }

    /// The engine's name in reports (`reference` / `threaded`).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_display_their_names() {
        let names = Engine::all().map(|engine| engine.to_string());
        assert_eq!(names, ["reference", "threaded"]);
    }
}
