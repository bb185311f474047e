//! Fixed-capacity register lists.

use std::fmt;
use std::ops::Deref;

/// At most `N` registers, stored inline.
///
/// Fig. 1's fixed format (`DEST1`, `DEST2`, `SRC1`, `SRC2`, `PRED`)
/// bounds every register list one operation names, so the register
/// queries of [`Instruction`](crate::Instruction) (and of the
/// compiler's machine operations) return one of these instead of a
/// heap-allocated `Vec`. It dereferences to a slice.
///
/// # Examples
///
/// ```
/// use epic_isa::{Gpr, Instruction, Opcode, Operand};
///
/// let add = Instruction::alu3(Opcode::Add, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Gpr(Gpr(3)));
/// assert_eq!(add.gpr_reads()[..], [Gpr(2), Gpr(3)]);
/// ```
#[derive(Clone, Copy)]
pub struct RegList<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> RegList<T, N> {
    /// The empty list.
    #[must_use]
    pub fn new() -> Self {
        RegList {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends a register.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds `N` registers: every query
    /// sizes its list for the fields it reads, so that is a bug here.
    pub fn push(&mut self, item: T) {
        self.items[usize::from(self.len)] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for RegList<T, N> {
    /// Appends every register, panicking past `N` as [`RegList::push`].
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for RegList<T, N> {
    fn default() -> Self {
        RegList::new()
    }
}

impl<T, const N: usize> Deref for RegList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T, const N: usize> IntoIterator for RegList<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(usize::from(self.len))
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a RegList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for RegList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for RegList<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for RegList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
