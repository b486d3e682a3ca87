//! Seeded deterministic pattern pool: per-input signature words.

/// A pool of input patterns stored column-wise: one signature (a `Vec` of
/// `u64` words, 64 patterns per word) per primary input, in
/// `Network::inputs()` order. Bit `b` of word `w` across all inputs spells
/// out pattern number `w * 64 + b`.
///
/// The pool is fixed once built. Bits beyond [`PatternPool::patterns`]
/// are kept zero in every signature; the per-word validity mask is
/// [`PatternPool::mask`].
#[derive(Debug, Clone)]
pub struct PatternPool {
    words: usize,
    filled: usize,
    sigs: Vec<Vec<u64>>,
}

/// xorshift64* step — the same dependency-free PRNG used across the repo.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl PatternPool {
    /// A pool of `64 * base_words` seeded random patterns, followed by
    /// `pad_words` empty (fully masked) words. Padding draws nothing from
    /// the generator, so the seeded patterns depend only on `base_words`
    /// and `seed`.
    ///
    /// Seeded words cycle through three bit densities — 1/2, 3/4, 1/4 —
    /// so that wide cubes (which a uniform pattern almost never turns on)
    /// still fire in the biased words and can collect refutation
    /// witnesses. Word 0 is always the uniform one.
    #[must_use]
    pub fn random(num_inputs: usize, base_words: usize, pad_words: usize, seed: u64) -> Self {
        let base_words = base_words.max(1);
        let words = base_words + pad_words;
        let mut state = seed | 1;
        let sigs = (0..num_inputs)
            .map(|_| {
                (0..words)
                    .map(|w| {
                        if w >= base_words {
                            return 0;
                        }
                        let a = xorshift(&mut state);
                        match w % 3 {
                            1 => a | xorshift(&mut state),
                            2 => a & xorshift(&mut state),
                            _ => a,
                        }
                    })
                    .collect()
            })
            .collect();
        PatternPool {
            words,
            filled: base_words * 64,
            sigs,
        }
    }

    /// A pool enumerating all `2^num_inputs` minterms: pattern `m` assigns
    /// input `k` the value `(m >> k) & 1`.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 16` (the pool would not fit in memory).
    #[must_use]
    pub fn exhaustive(num_inputs: usize) -> Self {
        assert!(num_inputs <= 16, "exhaustive pool needs <= 16 inputs");
        let patterns = 1usize << num_inputs;
        let words = patterns.div_ceil(64);
        let sigs = (0..num_inputs)
            .map(|k| {
                (0..words)
                    .map(|w| {
                        let mut word = 0u64;
                        for b in 0..64 {
                            let m = w * 64 + b;
                            if m < patterns && (m >> k) & 1 == 1 {
                                word |= 1 << b;
                            }
                        }
                        word
                    })
                    .collect()
            })
            .collect();
        PatternPool {
            words,
            filled: patterns,
            sigs,
        }
    }

    /// Signature width in words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of patterns currently in the pool.
    #[must_use]
    pub fn patterns(&self) -> usize {
        self.filled
    }

    /// Validity mask for word `w`: bit `b` is set iff pattern `w*64 + b`
    /// exists. Signatures must stay zero outside this mask so that
    /// complemented signatures can be re-masked with a single AND.
    #[must_use]
    pub fn mask(&self, w: usize) -> u64 {
        let lo = w * 64;
        if self.filled >= lo + 64 {
            !0
        } else if self.filled <= lo {
            0
        } else {
            (1u64 << (self.filled - lo)) - 1
        }
    }

    /// Signature words of the `k`-th primary input.
    #[must_use]
    pub fn input_sig(&self, k: usize) -> &[u64] {
        &self.sigs[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_pool_spells_minterms() {
        let pool = PatternPool::exhaustive(3);
        assert_eq!(pool.patterns(), 8);
        assert_eq!(pool.words(), 1);
        assert_eq!(pool.mask(0), 0xFF);
        // Pattern m assigns input k the bit (m >> k) & 1.
        for m in 0..8usize {
            for k in 0..3 {
                let want = (m >> k) & 1 == 1;
                let got = (pool.input_sig(k)[0] >> m) & 1 == 1;
                assert_eq!(got, want, "minterm {m} input {k}");
            }
        }
    }

    /// Padding words are empty and draw nothing from the generator: the
    /// seeded words of a padded pool equal those of an unpadded one.
    #[test]
    fn pad_words_leave_seeded_patterns_unchanged() {
        let plain = PatternPool::random(5, 3, 0, 42);
        let padded = PatternPool::random(5, 3, 1, 42);
        assert_eq!(plain.patterns(), 192);
        assert_eq!(padded.patterns(), 192);
        assert_eq!(padded.mask(3), 0);
        for k in 0..5 {
            assert_eq!(&padded.input_sig(k)[..3], plain.input_sig(k));
            assert_eq!(padded.input_sig(k)[3], 0);
        }
    }
}
