//! Exact binomial coefficients on [`BigUint`], with incremental updates.
//!
//! Every coefficient here is reached by a chain of exact Pascal moves,
//!
//! * `C(m+1, j) = C(m, j) · (m+1) / (m+1−j)` (row move),
//! * `C(m+1, j+1) = C(m, j) · (m+1) / (j+1)` (diagonal move),
//! * `C(m−1, j) = C(m, j) · (m−j) / m`,
//! * `C(m, j−1) = C(m, j) · j / (m−j+1)`,
//!
//! each an exact integer multiply/divide in this order. A move is cheap to
//! describe but a pass over a bignum of thousands of bits is not, so the
//! upward moves are word-batched: a pending `Ratio` multiplies consecutive
//! move factors together while both products fit in a `u64`, and applies
//! them in one [`BigUint::mul_div_u64`] pass when the next factor would
//! overflow or the value must be read. Every prefix of a chain of moves
//! lands on a binomial coefficient, so each flush is an exact division; the
//! remainder is checked on every flush. [`binomial`] and the combinadic
//! rank ([`SubsetCodec::rank`](crate::combinadic::SubsetCodec::rank))
//! batch this way; [`BinomialWalker`] keeps the single-step downward moves
//! the unrank walk needs.

use crate::bignum::BigUint;

/// A pending exact ratio `num / den` of consecutive Pascal moves, not yet
/// applied to the coefficient it scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    /// No pending moves.
    pub(crate) const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Adds the move `num / den` to the pending moves, first flushing them
    /// into `value` when either product would overflow a `u64`.
    pub(crate) fn push(&mut self, value: &mut BigUint, num: u64, den: u64) {
        match (self.num.checked_mul(num), self.den.checked_mul(den)) {
            (Some(n), Some(d)) => *self = Ratio { num: n, den: d },
            _ => {
                self.flush(value);
                *self = Ratio { num, den };
            }
        }
    }

    /// Applies the pending moves to `value` in one multiply/divide pass.
    ///
    /// # Panics
    ///
    /// Panics if the division is not exact, i.e. the pending moves did not
    /// take one binomial coefficient to another.
    pub(crate) fn flush(&mut self, value: &mut BigUint) {
        if *self != Ratio::ONE {
            let rem = value.mul_div_u64(self.num, self.den);
            assert_eq!(rem, 0, "Pascal move {}/{} is not exact", self.num, self.den);
            *self = Ratio::ONE;
        }
    }
}

/// Computes `C(n, k)` exactly.
///
/// Returns zero when `k > n`, matching the combinatorial convention.
///
/// # Example
///
/// ```
/// use bci_encoding::binomial::binomial;
///
/// assert_eq!(binomial(10, 3).to_u64(), Some(120));
/// assert_eq!(binomial(0, 0).to_u64(), Some(1));
/// assert_eq!(binomial(3, 10).to_u64(), Some(0));
/// // C(200, 100) is a 196-bit number:
/// assert_eq!(binomial(200, 100).bit_length(), 196);
/// ```
pub fn binomial(n: u64, k: u64) -> BigUint {
    if k > n {
        return BigUint::zero();
    }
    let k = k.min(n - k);
    let mut v = BigUint::one();
    let mut pending = Ratio::ONE;
    for i in 1..=k {
        // Diagonal move C(n−k+i−1, i−1) → C(n−k+i, i).
        pending.push(&mut v, n - k + i, i);
    }
    pending.flush(&mut v);
    v
}

/// The exact number of bits needed to index one of the `C(n, k)` subsets:
/// `⌈log₂ C(n, k)⌉` (and `0` when `C(n,k) ≤ 1`).
pub fn binomial_code_len(n: u64, k: u64) -> u32 {
    code_len(&binomial(n, k))
}

/// `⌈log₂ c⌉`, the bits needed to index one of `c` objects (`0` when
/// `c ≤ 1`).
pub(crate) fn code_len(c: &BigUint) -> u32 {
    if c.is_zero() {
        return 0;
    }
    // ⌈log₂ c⌉ = bit_length(c - 1) for c ≥ 1.
    let mut m = c.clone();
    m.sub_assign(&BigUint::one());
    m.bit_length() as u32
}

/// A cursor over Pascal's triangle holding the exact value of `C(m, j)` and
/// supporting single-pass big-integer moves down to adjacent coefficients.
///
/// # Example
///
/// ```
/// use bci_encoding::binomial::BinomialWalker;
///
/// let mut w = BinomialWalker::new(10, 3); // C(10,3) = 120
/// assert_eq!(w.value().to_u64(), Some(120));
/// w.dec_m(); // C(9,3) = 84
/// assert_eq!(w.value().to_u64(), Some(84));
/// w.dec_j(); // C(9,2) = 36
/// assert_eq!(w.value().to_u64(), Some(36));
/// ```
#[derive(Debug, Clone)]
pub struct BinomialWalker {
    m: u64,
    j: u64,
    value: BigUint,
}

impl BinomialWalker {
    /// Positions the cursor at `C(m, j)`.
    pub fn new(m: u64, j: u64) -> Self {
        Self::at(m, j, binomial(m, j))
    }

    /// Positions the cursor at `C(m, j)` whose exact value the caller
    /// already holds.
    pub(crate) fn at(m: u64, j: u64, value: BigUint) -> Self {
        BinomialWalker { m, j, value }
    }

    /// Current upper index `m`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Current lower index `j`.
    pub fn j(&self) -> u64 {
        self.j
    }

    /// Current exact coefficient value.
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// Moves to `C(m−1, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn dec_m(&mut self) {
        assert!(self.m > 0, "cannot decrement m below 0");
        if self.j > self.m - 1 {
            self.m -= 1;
            self.value = BigUint::zero();
            return;
        }
        if !self.value.is_zero() {
            self.value.mul_assign_u64(self.m - self.j);
            let rem = self.value.div_assign_u64(self.m);
            debug_assert_eq!(rem, 0);
        }
        self.m -= 1;
    }

    /// Moves to `C(m, j−1)`.
    ///
    /// # Panics
    ///
    /// Panics if `j == 0`.
    pub fn dec_j(&mut self) {
        assert!(self.j > 0, "cannot decrement j below 0");
        if self.value.is_zero() {
            self.j -= 1;
            self.value = binomial(self.m, self.j);
            return;
        }
        self.value.mul_assign_u64(self.j);
        let rem = self.value.div_assign_u64(self.m - self.j + 1);
        debug_assert_eq!(rem, 0);
        self.j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_match_pascal() {
        let mut row = vec![1u64];
        for n in 0..=20u64 {
            for (k, &expect) in row.iter().enumerate() {
                assert_eq!(binomial(n, k as u64).to_u64(), Some(expect), "C({n},{k})");
            }
            let mut next = vec![1u64];
            for w in row.windows(2) {
                next.push(w[0] + w[1]);
            }
            next.push(1);
            row = next;
        }
    }

    #[test]
    fn symmetric() {
        for n in 0..30u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
            }
        }
    }

    #[test]
    fn zero_above_diagonal() {
        assert!(binomial(5, 6).is_zero());
        assert!(binomial(0, 1).is_zero());
    }

    #[test]
    fn central_binomial_large() {
        // C(64, 32) = 1832624140942590534 fits in u64.
        assert_eq!(binomial(64, 32).to_u64(), Some(1_832_624_140_942_590_534));
    }

    #[test]
    fn ratio_batches_moves_and_flushes_on_overflow() {
        // Row moves C(m, 2) → C(m+1, 2) from C(2, 2) up to C(40, 2): the
        // pending products overflow a u64 well before the end, so the walk
        // flushes mid-way and must still land on the exact value.
        let mut v = BigUint::one();
        let mut pending = Ratio::ONE;
        for m in 2..40u64 {
            pending.push(&mut v, (m + 1) * 1_000_000_000, (m - 1) * 1_000_000_000);
        }
        assert_ne!(v, BigUint::one(), "an overflow flushed early");
        pending.flush(&mut v);
        assert_eq!(pending, Ratio::ONE);
        assert_eq!(v.to_u64(), Some(40 * 39 / 2));
    }

    #[test]
    #[should_panic(expected = "not exact")]
    fn ratio_rejects_inexact_flush() {
        let mut v = BigUint::from(3u64);
        let mut pending = Ratio::ONE;
        pending.push(&mut v, 1, 2);
        pending.flush(&mut v);
    }

    #[test]
    fn code_len_examples() {
        assert_eq!(binomial_code_len(10, 3), 7); // C=120, ⌈log₂⌉=7
        assert_eq!(binomial_code_len(4, 2), 3); // C=6
        assert_eq!(binomial_code_len(1, 1), 0); // C=1, nothing to send
        assert_eq!(binomial_code_len(4, 0), 0); // C=1
        assert_eq!(binomial_code_len(2, 1), 1); // C=2
    }

    #[test]
    fn code_len_exact_powers_of_two() {
        // C(8, 1) = 8 = 2^3 needs exactly 3 bits (indices 0..=7).
        assert_eq!(binomial_code_len(8, 1), 3);
    }

    #[test]
    fn walker_matches_direct_computation() {
        let mut w = BinomialWalker::new(30, 10);
        assert_eq!(w.value(), &binomial(30, 10));
        for m in (11..30u64).rev() {
            w.dec_m();
            assert_eq!(w.value(), &binomial(m, 10), "C({m},10)");
        }
        for j in (1..=10u64).rev() {
            w.dec_j();
            assert_eq!(w.value(), &binomial(11, j - 1), "C(11,{})", j - 1);
        }
    }

    #[test]
    fn walker_through_zero_region() {
        // Start at C(6, 5) = 6 and walk m down past the diagonal.
        let mut w = BinomialWalker::new(6, 5);
        assert_eq!(w.value().to_u64(), Some(6));
        w.dec_m(); // C(5,5)
        assert_eq!(w.value().to_u64(), Some(1));
        w.dec_m(); // C(4,5) = 0
        assert!(w.value().is_zero());
        w.dec_j(); // C(4,4) = 1
        assert_eq!(w.value().to_u64(), Some(1));
    }

    #[test]
    fn huge_binomial_bit_length_matches_entropy_estimate() {
        // log2 C(n, k) ≈ n·h(k/n); for n = 10_000, k = 100:
        let n = 10_000u64;
        let k = 100u64;
        let bits = binomial(n, k).bit_length() as f64;
        let p = k as f64 / n as f64;
        let h = -p * p.log2() - (1.0 - p) * (1.0 - p).log2();
        let est = n as f64 * h;
        // Entropy estimate is an upper bound up to lower-order terms.
        assert!(bits <= est + 1.0, "bits={bits} est={est}");
        assert!(
            bits >= est - 10.0 * (n as f64).log2(),
            "bits={bits} est={est}"
        );
    }
}
