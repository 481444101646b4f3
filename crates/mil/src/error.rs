//! Typed errors for MIL rank/selection paths that previously panicked.
//!
//! The retrieval loop runs against adversarial databases (empty bags,
//! clips whose tracker lost every vehicle); those states are reportable
//! conditions, not programming errors, so the hot paths surface them as
//! [`MilError`] instead of unwrapping.

use std::fmt;

/// A reportable failure in a MIL learner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilError {
    /// Every positively labeled bag was empty, so a concept-point search
    /// (Diverse Density / EM-DD) had no candidate starts.
    NoPositiveInstances,
}

impl fmt::Display for MilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilError::NoPositiveInstances => {
                write!(f, "every positive bag is empty: no candidate instances")
            }
        }
    }
}

impl std::error::Error for MilError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MilError::NoPositiveInstances
            .to_string()
            .contains("positive"));
    }
}
