//! Join-semilattice building blocks for the dataflow analyses.
//!
//! Every analysis state is a [`Lattice`]: a partial order with a least
//! upper bound, expressed operationally as an in-place [`Lattice::join`]
//! that reports whether anything changed (the fixpoint solver's
//! termination signal). The concrete lattices here are the small, finite
//! (or finite-height-after-widening) domains the machine-IR analyses
//! need: may-flags, guarded definedness, predicate constants and value
//! intervals.

use epic_isa::PredReg;

/// A join-semilattice: `join` computes the least upper bound in place
/// and reports whether `self` changed (false once a fixpoint is
/// reached).
pub trait Lattice {
    /// Joins `other` into `self`; returns whether `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// `bool` as the two-point may-lattice: `false ⊑ true`.
impl Lattice for bool {
    fn join(&mut self, other: &bool) -> bool {
        if *other && !*self {
            *self = true;
            true
        } else {
            false
        }
    }
}

/// Pointwise product lattice over a fixed-length vector.
impl<L: Lattice> Lattice for Vec<L> {
    fn join(&mut self, other: &Vec<L>) -> bool {
        let mut changed = false;
        for (dst, src) in self.iter_mut().zip(other) {
            changed |= dst.join(src);
        }
        changed
    }
}

/// Must-definedness of one GPR, refined by guard predicates.
///
/// `Always ⊑ Under(p) ⊑ No` (more definedness is lower): on every path
/// from the entry the register is written unconditionally (`Always`),
/// written only under guard `p` (`Under(p)`), or there is some path with
/// no write at all (`No`). Joining two different guards falls to `No` —
/// the analysis cannot name a single guard that covers both paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MustDef {
    /// Written on every path, unconditionally (or under complementary
    /// guards of one compare, which together always fire).
    Always,
    /// Written on every path, but only by instructions guarded by this
    /// predicate.
    Under(PredReg),
    /// Some path reaches here without writing the register.
    No,
}

impl Lattice for MustDef {
    fn join(&mut self, other: &MustDef) -> bool {
        let joined = match (*self, *other) {
            (MustDef::Always, MustDef::Always) => MustDef::Always,
            (MustDef::Always, MustDef::Under(p)) | (MustDef::Under(p), MustDef::Always) => {
                // One path always writes, the other writes under `p`:
                // together the write is only guaranteed under `p`.
                MustDef::Under(p)
            }
            (MustDef::Under(p), MustDef::Under(q)) if p == q => MustDef::Under(p),
            _ => MustDef::No,
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }
}

/// Constant-propagation lattice for one predicate register.
///
/// `Bottom` (no path reached yet) ⊑ `True`/`False` ⊑ `Top` (unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredVal {
    /// No path has produced a value yet.
    #[default]
    Bottom,
    /// Known true on every path.
    True,
    /// Known false on every path.
    False,
    /// May be either.
    Top,
}

impl PredVal {
    /// A known boolean, if the predicate has one on every path.
    #[must_use]
    pub fn known(self) -> Option<bool> {
        match self {
            PredVal::True => Some(true),
            PredVal::False => Some(false),
            _ => None,
        }
    }

    /// The negated value. Not `std::ops::Not`: unknown stays unknown, so
    /// this is deliberately an inherent method, not the operator.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> PredVal {
        match self {
            PredVal::True => PredVal::False,
            PredVal::False => PredVal::True,
            other => other,
        }
    }
}

impl Lattice for PredVal {
    fn join(&mut self, other: &PredVal) -> bool {
        let joined = match (*self, *other) {
            (PredVal::Bottom, v) | (v, PredVal::Bottom) => v,
            (a, b) if a == b => a,
            _ => PredVal::Top,
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }
}

/// An unsigned 32-bit value interval `[lo, hi]` (the datapath's natural
/// domain; signed facts are derived where both ends stay below
/// `i32::MAX`). `Interval::bottom()` is the empty interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u32,
    /// Inclusive upper bound.
    pub hi: u32,
}

impl Interval {
    /// The empty interval (identity of join).
    #[must_use]
    pub fn bottom() -> Interval {
        Interval {
            lo: u32::MAX,
            hi: 0,
        }
    }

    /// The full interval (no information).
    #[must_use]
    pub fn top() -> Interval {
        Interval {
            lo: 0,
            hi: u32::MAX,
        }
    }

    /// A single value.
    #[must_use]
    pub fn constant(value: u32) -> Interval {
        Interval {
            lo: value,
            hi: value,
        }
    }

    /// Whether no value is contained.
    #[must_use]
    pub fn is_bottom(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether `value` is contained.
    #[must_use]
    pub fn contains(&self, value: u32) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// Whether every value of `other` is contained in `self`.
    #[must_use]
    pub fn includes(&self, other: &Interval) -> bool {
        other.is_bottom() || (!self.is_bottom() && self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Interval addition; overflow of either end widens to top.
    #[must_use]
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::bottom();
        }
        match (self.lo.checked_add(other.lo), self.hi.checked_add(other.hi)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Interval::top(),
        }
    }

    /// Interval subtraction; underflow widens to top.
    #[must_use]
    pub fn sub(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::bottom();
        }
        match (self.lo.checked_sub(other.hi), self.hi.checked_sub(other.lo)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Interval::top(),
        }
    }
}

impl Lattice for Interval {
    fn join(&mut self, other: &Interval) -> bool {
        if other.is_bottom() {
            return false;
        }
        if self.is_bottom() {
            *self = *other;
            return true;
        }
        let joined = Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_is_the_may_lattice() {
        let mut a = false;
        assert!(a.join(&true));
        assert!(!a.join(&true));
        assert!(!a.join(&false));
        assert!(a);
    }

    #[test]
    fn mustdef_join_orders_definedness() {
        let mut d = MustDef::Always;
        assert!(!d.join(&MustDef::Always));
        assert!(d.join(&MustDef::Under(PredReg(3))));
        assert_eq!(d, MustDef::Under(PredReg(3)));
        assert!(!d.join(&MustDef::Under(PredReg(3))));
        assert!(
            d.join(&MustDef::Under(PredReg(4))),
            "different guards fall to No"
        );
        assert_eq!(d, MustDef::No);
        assert!(!d.join(&MustDef::Always), "No is the top");
    }

    #[test]
    fn predval_join_is_constant_propagation() {
        let mut v = PredVal::Bottom;
        assert!(v.join(&PredVal::True));
        assert_eq!(v.known(), Some(true));
        assert!(!v.join(&PredVal::True));
        assert!(v.join(&PredVal::False));
        assert_eq!(v, PredVal::Top);
        assert_eq!(PredVal::True.not(), PredVal::False);
    }

    #[test]
    fn interval_arithmetic_is_conservative() {
        let a = Interval { lo: 1, hi: 3 };
        let b = Interval { lo: 10, hi: 20 };
        assert_eq!(a.add(&b), Interval { lo: 11, hi: 23 });
        assert_eq!(b.sub(&a), Interval { lo: 7, hi: 19 });
        assert_eq!(a.sub(&b), Interval::top(), "underflow widens");
        assert_eq!(
            Interval::constant(u32::MAX).add(&Interval::constant(1)),
            Interval::top(),
            "overflow widens"
        );
        let mut j = Interval::bottom();
        assert!(j.join(&a));
        assert!(j.join(&b));
        assert_eq!(j, Interval { lo: 1, hi: 20 });
        assert!(j.includes(&a) && j.includes(&b));
        assert!(j.contains(5));
    }
}
