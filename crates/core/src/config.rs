//! FiCSUM hyper-parameters and their validation.

use std::fmt;

/// A rejected [`FicsumConfig`].
///
/// Returned by [`FicsumConfig::validate`] and propagated by
/// `SessionTemplate::new` / `FicsumBuilder::build` so callers can surface
/// configuration mistakes instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `window_size` below the minimum of 10 observations.
    WindowTooSmall,
    /// `buffer_ratio` outside `(0, 2]`.
    BufferRatioOutOfRange,
    /// `fingerprint_gap` of zero.
    ZeroFingerprintGap,
    /// `repository_gap` of zero.
    ZeroRepositoryGap,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::WindowTooSmall => write!(f, "window_size must be at least 10"),
            ConfigError::BufferRatioOutOfRange => write!(f, "buffer_ratio must be in (0, 2]"),
            ConfigError::ZeroFingerprintGap => write!(f, "fingerprint_gap must be >= 1"),
            ConfigError::ZeroRepositoryGap => write!(f, "repository_gap must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Hyper-parameters of the FiCSUM framework (Algorithm 1).
///
/// Defaults follow the paper's tuned values (Section VI-2): `w = 75`,
/// buffer ratio `0.25`, `P_C = 3`, `P_S = 25`. Those four are the
/// parameters the paper tunes (Figure 3); beside them sit the repository's
/// memory bound and the three switches the `ablations` bench flips. The
/// detection thresholds this implementation adds to the paper (DESIGN.md
/// deviations 1–4 and 7) are named constants beside their one reader in
/// `framework.rs`, not fields.
///
/// The struct is `#[non_exhaustive]`: construct it as
/// `FicsumConfig::default()` refined through the `with_*` setters (fields
/// stay `pub`, so reading — and in-place mutation before the config is
/// handed to a builder — keeps working).
///
/// ```
/// use ficsum_core::FicsumConfig;
/// let c = FicsumConfig::default().with_window_size(50).with_fingerprint_gap(5);
/// assert_eq!(c.window_size, 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct FicsumConfig {
    /// Window size `w`: length of both the active window `A` and the stale
    /// buffer window `B`.
    pub window_size: usize,
    /// Buffer ratio: the buffer delay is `b = ceil(window_size * ratio)`,
    /// bounding the assumed drift-detection delay.
    pub buffer_ratio: f64,
    /// Gap `P_C` between fingerprint updates (drift checks).
    pub fingerprint_gap: usize,
    /// Gap `P_S` between repository (non-active) fingerprint updates used by
    /// the intra-classifier weight component.
    pub repository_gap: usize,
    /// Maximum stored concepts; 0 = unbounded. When full, the least recently
    /// used concept is evicted.
    pub max_repository: usize,
    /// Whether to run the delayed second model-selection pass `w`
    /// observations after each drift (Section III-A).
    pub second_check: bool,
    /// Whether classifier growth events reset supervised meta-feature
    /// distributions (fingerprint plasticity, Section IV).
    pub plasticity: bool,
    /// Whether similarity records are re-based through retained fingerprint
    /// pairs when weights have moved (Section IV).
    pub rebase_similarity: bool,
}

impl Default for FicsumConfig {
    fn default() -> Self {
        Self {
            window_size: 75,
            buffer_ratio: 0.25,
            fingerprint_gap: 3,
            repository_gap: 25,
            max_repository: 0,
            second_check: true,
            plasticity: true,
            rebase_similarity: true,
        }
    }
}

macro_rules! with_setters {
    ($($(#[$doc:meta])* $with:ident: $field:ident: $ty:ty;)*) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $with(mut self, value: $ty) -> Self {
                self.$field = value;
                self
            }
        )*
    };
}

impl FicsumConfig {
    with_setters! {
        /// Returns the config with `window_size` replaced.
        with_window_size: window_size: usize;
        /// Returns the config with `buffer_ratio` replaced.
        with_buffer_ratio: buffer_ratio: f64;
        /// Returns the config with `fingerprint_gap` replaced.
        with_fingerprint_gap: fingerprint_gap: usize;
        /// Returns the config with `repository_gap` replaced.
        with_repository_gap: repository_gap: usize;
        /// Returns the config with `max_repository` replaced.
        with_max_repository: max_repository: usize;
        /// Returns the config with `second_check` replaced.
        with_second_check: second_check: bool;
        /// Returns the config with `plasticity` replaced.
        with_plasticity: plasticity: bool;
        /// Returns the config with `rebase_similarity` replaced.
        with_rebase_similarity: rebase_similarity: bool;
    }

    /// The buffer delay `b` implied by the window size and buffer ratio.
    pub fn buffer_delay(&self) -> usize {
        ((self.window_size as f64 * self.buffer_ratio).ceil() as usize).max(1)
    }

    /// Validates parameter sanity, reporting the first violated invariant.
    ///
    /// The negated comparison is deliberate: `!(x > 0.0 && ...)` rejects
    /// NaN along with out-of-range values, which `x <= 0.0 || ...` would
    /// silently accept.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window_size < 10 {
            return Err(ConfigError::WindowTooSmall);
        }
        if !(self.buffer_ratio > 0.0 && self.buffer_ratio <= 2.0) {
            return Err(ConfigError::BufferRatioOutOfRange);
        }
        if self.fingerprint_gap < 1 {
            return Err(ConfigError::ZeroFingerprintGap);
        }
        if self.repository_gap < 1 {
            return Err(ConfigError::ZeroRepositoryGap);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FicsumConfig::default();
        assert_eq!(c.window_size, 75);
        assert_eq!(c.fingerprint_gap, 3);
        assert_eq!(c.repository_gap, 25);
        assert!((c.buffer_ratio - 0.25).abs() < 1e-12);
        assert_eq!(c.buffer_delay(), 19); // ceil(75 * 0.25)
        assert_eq!(c.validate(), Ok(()));
    }

    /// Every invalid-config arm maps to its dedicated error variant.
    #[test]
    fn each_invalid_arm_reports_its_error() {
        let base = FicsumConfig::default;
        let cases: Vec<(FicsumConfig, ConfigError)> = vec![
            (FicsumConfig { window_size: 2, ..base() }, ConfigError::WindowTooSmall),
            (FicsumConfig { buffer_ratio: 0.0, ..base() }, ConfigError::BufferRatioOutOfRange),
            (FicsumConfig { buffer_ratio: 2.5, ..base() }, ConfigError::BufferRatioOutOfRange),
            (
                FicsumConfig { buffer_ratio: f64::NAN, ..base() },
                ConfigError::BufferRatioOutOfRange,
            ),
            (FicsumConfig { fingerprint_gap: 0, ..base() }, ConfigError::ZeroFingerprintGap),
            (FicsumConfig { repository_gap: 0, ..base() }, ConfigError::ZeroRepositoryGap),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate(), Err(expected), "{expected:?}");
        }
    }

    #[test]
    fn with_setters_replace_exactly_one_field() {
        let c = FicsumConfig::default()
            .with_window_size(50)
            .with_fingerprint_gap(5)
            .with_repository_gap(50)
            .with_max_repository(3)
            .with_second_check(false);
        assert_eq!(c.window_size, 50);
        assert_eq!(c.fingerprint_gap, 5);
        assert_eq!(c.repository_gap, 50);
        assert_eq!(c.max_repository, 3);
        assert!(!c.second_check);
        // Untouched fields keep their defaults.
        let d = FicsumConfig::default();
        assert_eq!(c.buffer_ratio, d.buffer_ratio);
        assert_eq!(c.plasticity, d.plasticity);
        assert_eq!(c.rebase_similarity, d.rebase_similarity);
    }

    #[test]
    fn errors_display_a_description() {
        let msg = ConfigError::WindowTooSmall.to_string();
        assert!(msg.contains("window_size"), "{msg}");
        let msg = ConfigError::BufferRatioOutOfRange.to_string();
        assert!(msg.contains("buffer_ratio") && msg.contains("(0, 2]"), "{msg}");
    }
}
