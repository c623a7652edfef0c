//! The unified error surface of the SMR crate.
//!
//! Historically each failure had its own shape: `Config::validate`
//! returned [`ConfigError`], registry slot exhaustion panicked inside
//! `register`. [`SmrError`] folds them into one hierarchy returned by the
//! fallible constructors ([`Smr::try_new`], [`Smr::try_register`],
//! `SmrBuilder::try_build`), so callers that want to recover — retry
//! registration after a peer churns out — can match on a variant instead
//! of catching a panic. The panicking entry
//! points ([`Smr::new`], [`Smr::register`]) are thin conveniences over them.
//!
//! [`Smr::try_new`]: crate::Smr::try_new
//! [`Smr::try_register`]: crate::Smr::try_register
//! [`Smr::new`]: crate::Smr::new
//! [`Smr::register`]: crate::Smr::register

use std::fmt;

use crate::api::ConfigError;

/// Any failure the SMR crate reports through its fallible constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmrError {
    /// The [`Config`](crate::Config) violates a cross-field invariant.
    Config(ConfigError),
    /// `Config::max_threads` handles are already registered; the caller
    /// may retry after a peer drops its handle (tids are recycled).
    RegistryExhausted {
        /// The configured handle capacity that is fully claimed.
        max_threads: usize,
    },
}

impl fmt::Display for SmrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmrError::Config(e) => write!(f, "invalid SMR Config: {e}"),
            SmrError::RegistryExhausted { max_threads } => write!(
                f,
                "SMR: more handles registered than Config::max_threads ({max_threads})"
            ),
        }
    }
}

impl std::error::Error for SmrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmrError::Config(e) => Some(e),
            SmrError::RegistryExhausted { .. } => None,
        }
    }
}

impl From<ConfigError> for SmrError {
    fn from(e: ConfigError) -> Self {
        SmrError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_names_the_failure_and_the_limit() {
        let e = SmrError::RegistryExhausted { max_threads: 4 };
        assert!(e.to_string().contains("max_threads (4)"), "{e}");

        let e = SmrError::from(ConfigError::ZeroSlots);
        assert!(e.to_string().contains("invalid SMR Config"), "{e}");
        assert!(e.source().is_some(), "config cause is chained");

        assert!(SmrError::RegistryExhausted { max_threads: 1 }.source().is_none());
    }
}
