//! Shared configuration knobs for the protocol implementations.
//!
//! Every protocol in the paper is parameterised by (at least) a trade-off
//! parameter `k` and a failure probability `α`. The defaults reproduce the
//! paper's "with high probability" setting (`α = 1/n²` and the
//! message-optimal `k`); the experiment harness also uses the
//! constant-success setting to measure scaling exponents without the
//! `polylog(n)` amplification constants dominating at simulable sizes.

/// How a protocol chooses its trade-off parameter `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum KChoice {
    /// Use the message-optimal value from the corresponding corollary (e.g.
    /// `k = n^{1/3}` for `QuantumLE`, `k = n^{2/3}` for `QuantumQWLE`).
    #[default]
    Optimal,
    /// Use `k = ⌈n^exponent⌉`.
    Exponent(f64),
    /// Use a fixed value.
    Fixed(usize),
}

impl KChoice {
    /// Resolves the choice for a given optimal exponent and network size.
    #[must_use]
    pub fn resolve(self, n: usize, optimal_exponent: f64) -> usize {
        let n_f = n.max(2) as f64;
        let k = match self {
            KChoice::Optimal => n_f.powf(optimal_exponent),
            KChoice::Exponent(e) => n_f.powf(e),
            KChoice::Fixed(k) => return k.max(1),
        };
        (k.round().max(1.0) as usize).clamp(1, n.saturating_sub(1).max(1))
    }
}

/// How a protocol chooses its failure probability `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum AlphaChoice {
    /// The paper's with-high-probability setting: `α = 1/n²`.
    #[default]
    HighProbability,
    /// A fixed constant, e.g. `0.25` for scaling experiments where the
    /// `log(1/α)` amplification factor would otherwise dominate the measured
    /// constants at simulable network sizes.
    Fixed(f64),
}

impl AlphaChoice {
    /// Resolves the failure probability for a network of `n` nodes, clamped
    /// away from 0 and 1.
    #[must_use]
    pub fn resolve(self, n: usize) -> f64 {
        let alpha = match self {
            AlphaChoice::HighProbability => 1.0 / (n.max(2) as f64).powi(2),
            AlphaChoice::Fixed(a) => a,
        };
        alpha.clamp(1e-12, 0.49)
    }

    /// A tighter per-subroutine failure probability used by nested inner
    /// searches (the paper uses `1/n³` inside `QuantumQWLE` and
    /// `QuantumGeneralLE`): one power of `n` smaller than
    /// [`resolve`](Self::resolve) in the high-probability setting, half the
    /// constant otherwise.
    #[must_use]
    pub fn resolve_inner(self, n: usize) -> f64 {
        match self {
            AlphaChoice::HighProbability => (1.0 / (n.max(2) as f64).powi(3)).clamp(1e-12, 0.49),
            AlphaChoice::Fixed(a) => (a / 2.0).clamp(1e-12, 0.49),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_choice_resolution() {
        assert_eq!(KChoice::Optimal.resolve(1000, 1.0 / 3.0), 10);
        assert_eq!(KChoice::Exponent(0.5).resolve(100, 1.0 / 3.0), 10);
        assert_eq!(KChoice::Fixed(7).resolve(100, 1.0 / 3.0), 7);
        assert_eq!(KChoice::Fixed(0).resolve(100, 1.0 / 3.0), 1);
        // Clamped to n - 1.
        assert_eq!(KChoice::Exponent(2.0).resolve(10, 1.0 / 3.0), 9);
        assert_eq!(KChoice::default(), KChoice::Optimal);
    }

    #[test]
    fn alpha_choice_resolution() {
        assert!((AlphaChoice::HighProbability.resolve(100) - 1e-4).abs() < 1e-12);
        assert_eq!(AlphaChoice::Fixed(0.25).resolve(100), 0.25);
        assert_eq!(AlphaChoice::Fixed(0.9).resolve(100), 0.49);
        assert!((AlphaChoice::HighProbability.resolve_inner(100) - 1e-6).abs() < 1e-15);
        assert_eq!(AlphaChoice::Fixed(0.2).resolve_inner(100), 0.1);
        assert_eq!(AlphaChoice::default(), AlphaChoice::HighProbability);
    }
}
