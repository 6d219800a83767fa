//! Message payloads and the CONGEST bit-size accounting they must implement.

/// A message payload that knows its own encoded size in bits.
///
/// The CONGEST model allows at most `O(log n)` bits per edge per round
/// (paper, Section 2.1). The [`Network`](crate::Network) enforces a concrete
/// budget of `CONGEST_FACTOR · ⌈log₂ n⌉` bits per message, so every payload
/// type used with the simulator must report its size through this trait.
///
/// # Example
///
/// ```
/// use congest_net::Payload;
///
/// #[derive(Debug, Clone)]
/// enum Msg {
///     Rank(u64),
///     Reply(bool),
/// }
///
/// impl Payload for Msg {
///     fn size_bits(&self) -> usize {
///         match self {
///             // A rank in 1..n^4 needs 4·log2(n) bits; 64 is a safe upper bound
///             // for every network size this workspace simulates.
///             Msg::Rank(_) => 64,
///             Msg::Reply(_) => 1,
///         }
///     }
/// }
///
/// assert_eq!(Msg::Reply(true).size_bits(), 1);
/// ```
pub trait Payload: Clone + std::fmt::Debug {
    /// The number of bits needed to encode this payload on the wire.
    fn size_bits(&self) -> usize;
}

impl Payload for u64 {
    fn size_bits(&self) -> usize {
        64
    }
}

impl Payload for u32 {
    fn size_bits(&self) -> usize {
        32
    }
}

impl Payload for bool {
    fn size_bits(&self) -> usize {
        1
    }
}

impl Payload for () {
    fn size_bits(&self) -> usize {
        1
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn size_bits(&self) -> usize {
        self.0.size_bits() + self.1.size_bits()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn size_bits(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::size_bits)
    }
}

/// The multiplicative slack applied to `⌈log₂ n⌉` when computing the per-round
/// per-edge bit budget. The paper's protocols only ever need messages of a
/// constant number of `O(log n)`-bit fields (a rank in `[n^4]` is `4 log n`
/// bits, plus a tag), so a factor of 8 comfortably covers every message this
/// workspace sends while still rejecting anything super-logarithmic.
pub const CONGEST_FACTOR: usize = 8;

/// The per-message bit budget for a network of `n` nodes.
///
/// The budget is `max(64, CONGEST_FACTOR · ⌈log₂ n⌉)`: the 64-bit floor lets
/// every simulated quantity (ranks, identifiers, walk choices) travel as one
/// machine word even on tiny test networks, while the logarithmic term is
/// what actually binds — and is asymptotically enforced — on the network
/// sizes used in experiments.
#[must_use]
pub fn congest_budget_bits(n: usize) -> usize {
    let log = usize::BITS as usize - n.max(2).leading_zeros() as usize;
    (CONGEST_FACTOR * log.max(1)).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_payload_sizes() {
        assert_eq!(7u64.size_bits(), 64);
        assert_eq!(7u32.size_bits(), 32);
        assert_eq!(true.size_bits(), 1);
        assert_eq!(().size_bits(), 1);
        assert_eq!((1u32, false).size_bits(), 33);
        assert_eq!(Some(3u32).size_bits(), 33);
        assert_eq!(None::<u32>.size_bits(), 1);
    }

    #[test]
    fn congest_budget_grows_logarithmically() {
        assert!(congest_budget_bits(16) >= 8 * 4);
        assert!(congest_budget_bits(1 << 20) >= 8 * 20);
        assert!(congest_budget_bits(1 << 20) <= 8 * 22);
        // Budget always admits a 64-bit machine word.
        assert!(congest_budget_bits(2) >= 64);
        assert!(congest_budget_bits(256) >= 64);
    }

    #[test]
    fn budget_is_monotone_in_n() {
        let mut last = 0;
        for n in [2, 4, 16, 256, 65536] {
            let b = congest_budget_bits(n);
            assert!(b >= last);
            last = b;
        }
    }
}
