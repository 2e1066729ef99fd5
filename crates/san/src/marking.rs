//! Places and markings.

use std::fmt;

/// Handle to a discrete (token-holding) place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "place#{}", self.0)
    }
}

/// Handle to a fluid (continuous accumulator) place.
///
/// Fluid places extend classic SANs with a continuously integrated
/// quantity: each has a marking-dependent *flow rate*, and the simulator
/// advances `fluid += rate(marking) · dt` between events. Gates may read
/// and write fluid levels; the checkpoint model uses one to track the
/// amount of computation not yet protected by a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FluidId(pub(crate) usize);

impl fmt::Display for FluidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fluid#{}", self.0)
    }
}

/// The state of a SAN: token counts for every discrete place and levels
/// for every fluid place.
///
/// Token counts are `u64`; attempts to remove more tokens than present
/// panic (it indicates an enabling-rule bug in the executor or a gate
/// function violating its contract).
///
/// Besides the token/fluid vectors, a marking carries cheap *dirty-place*
/// bookkeeping for the incremental scheduler: a bounded scratch list of
/// the discrete places touched since the last dirty-window reset
/// (`begin_dirty_window`, crate-internal), de-duplicated by a per-place
/// bitmask (one bit per place, 64 places per word). Recording a dirty
/// place is one word test plus, on first touch, a bit set and a push;
/// resetting the window clears only the set bits, so the steady state
/// allocates nothing and never scans the full place space. The mask
/// doubles as the scheduler's input: it is OR-folded against precomputed
/// place→activity dependency bitsets without walking the list.
///
/// A second bitset mirrors which places hold at least one token, kept
/// current by every token mutation at the cost of one bit write; the
/// compiled enabling checks test zero/nonzero conditions against it a
/// word at a time. Equality ([`PartialEq`]) compares tokens and fluid
/// levels only — never the bookkeeping.
#[derive(Debug, Clone)]
pub struct Marking {
    tokens: Vec<u64>,
    fluid: Vec<f64>,
    /// Bumped on every mutation; the simulator uses it to detect marking
    /// changes without diffing.
    version: u64,
    /// Discrete places mutated since the last `begin_dirty_window`, each
    /// listed once, in first-touch order. Bounded by the place count.
    dirty: Vec<u32>,
    /// Bit-per-place mirror of `dirty`: bit `p` of word `p / 64` is set
    /// iff place `p` is in the list.
    dirty_words: Vec<u64>,
    /// Bit `p % 64` of word `p / 64` is set iff place `p` holds a token;
    /// at least one word.
    nonzero: Vec<u64>,
}

impl PartialEq for Marking {
    fn eq(&self, other: &Self) -> bool {
        self.tokens == other.tokens && self.fluid == other.fluid
    }
}

impl Marking {
    pub(crate) fn new(tokens: Vec<u64>, fluid: Vec<f64>) -> Marking {
        let places = tokens.len();
        let nonzero = nonzero_words(&tokens);
        Marking {
            tokens,
            fluid,
            version: 0,
            dirty: Vec::with_capacity(places),
            dirty_words: vec![0; places.div_ceil(64)],
            nonzero,
        }
    }

    /// Number of tokens in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this model.
    #[must_use]
    pub fn tokens(&self, place: PlaceId) -> u64 {
        self.tokens[place.0]
    }

    /// Sets the token count of `place`.
    pub fn set_tokens(&mut self, place: PlaceId, count: u64) {
        if self.tokens[place.0] != count {
            self.tokens[place.0] = count;
            self.version += 1;
            self.mark_dirty(place.0);
            self.set_nonzero(place.0, count != 0);
        }
    }

    /// Adds `count` tokens to `place`.
    pub fn add_tokens(&mut self, place: PlaceId, count: u64) {
        if count > 0 {
            self.tokens[place.0] += count;
            self.version += 1;
            self.mark_dirty(place.0);
            self.set_nonzero(place.0, true);
        }
    }

    /// Removes `count` tokens from `place`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` tokens are present.
    pub fn remove_tokens(&mut self, place: PlaceId, count: u64) {
        let have = self.tokens[place.0];
        assert!(
            have >= count,
            "cannot remove {count} tokens from {place} holding {have}"
        );
        if count > 0 {
            self.tokens[place.0] = have - count;
            self.version += 1;
            self.mark_dirty(place.0);
            self.set_nonzero(place.0, have != count);
        }
    }

    /// True if `place` holds at least one token.
    #[must_use]
    pub fn has_token(&self, place: PlaceId) -> bool {
        self.tokens(place) > 0
    }

    /// The level of fluid place `id`.
    #[must_use]
    pub fn fluid(&self, id: FluidId) -> f64 {
        self.fluid[id.0]
    }

    /// Sets the level of fluid place `id`.
    pub fn set_fluid(&mut self, id: FluidId, level: f64) {
        self.fluid[id.0] = level;
        self.version += 1;
    }

    /// Adds `amount` (may be negative) to fluid place `id`.
    pub fn add_fluid(&mut self, id: FluidId, amount: f64) {
        self.fluid[id.0] += amount;
        self.version += 1;
    }

    /// Monotone counter incremented on every mutation. Two equal versions
    /// on the same marking imply no mutation happened in between.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of discrete places.
    #[must_use]
    pub fn place_count(&self) -> usize {
        self.tokens.len()
    }

    /// Number of fluid places.
    #[must_use]
    pub fn fluid_count(&self) -> usize {
        self.fluid.len()
    }

    pub(crate) fn integrate_fluid(&mut self, id: FluidId, amount: f64) {
        // Integration is not a logical "marking change": it must not
        // trigger activity reactivation, so it bypasses the version bump.
        self.fluid[id.0] += amount;
    }

    /// Opens a fresh dirty window: subsequently mutated discrete places
    /// accumulate in [`Marking::dirty_places`] and the mirroring
    /// bitmask. The incremental scheduler calls this once
    /// per event; resetting clears only the bits of the places actually
    /// dirtied (O(dirty), not O(places)) plus a `Vec::clear` with
    /// capacity retained — no allocation in steady state.
    pub(crate) fn begin_dirty_window(&mut self) {
        for &p in &self.dirty {
            self.dirty_words[(p >> 6) as usize] &= !(1u64 << (p & 63));
        }
        self.dirty.clear();
    }

    /// The discrete places mutated since the last
    /// [`Marking::begin_dirty_window`], each exactly once, in first-touch
    /// order.
    pub(crate) fn dirty_places(&self) -> &[u32] {
        &self.dirty
    }

    /// Bit-per-place view of [`Marking::dirty_places`]: bit `p % 64` of
    /// word `p / 64` is set iff place `p` is dirty.
    #[cfg(test)]
    pub(crate) fn dirty_mask(&self) -> &[u64] {
        &self.dirty_words
    }

    /// The nonzero-place bitset: bit `p % 64` of word `p / 64` is set
    /// iff place `p` holds at least one token. At least one word long.
    #[inline]
    pub(crate) fn nonzero_words(&self) -> &[u64] {
        &self.nonzero
    }

    /// Debug-build check that the dirty bitmask and the dirty list
    /// describe the same set of places, and that the nonzero bitset
    /// matches the token counts; called from the simulator's per-event
    /// consistency assertion.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_dirty_consistency(&self) {
        let mut expect = vec![0u64; self.dirty_words.len()];
        for &p in &self.dirty {
            expect[(p >> 6) as usize] |= 1u64 << (p & 63);
        }
        debug_assert_eq!(
            expect, self.dirty_words,
            "dirty bitmask out of sync with the dirty-place list"
        );
        debug_assert_eq!(
            nonzero_words(&self.tokens),
            self.nonzero,
            "nonzero bitset out of sync with the token counts"
        );
    }

    #[inline]
    fn set_nonzero(&mut self, place: usize, nonzero: bool) {
        let word = &mut self.nonzero[place >> 6];
        let bit = 1u64 << (place & 63);
        if nonzero {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    fn mark_dirty(&mut self, place: usize) {
        let word = &mut self.dirty_words[place >> 6];
        let bit = 1u64 << (place & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.dirty.push(place as u32);
        }
    }
}

/// The nonzero-place bitset of `tokens` (see [`Marking`]).
fn nonzero_words(tokens: &[u64]) -> Vec<u64> {
    let mut words = vec![0u64; tokens.len().div_ceil(64).max(1)];
    for (p, _) in tokens.iter().enumerate().filter(|(_, &t)| t != 0) {
        words[p >> 6] |= 1u64 << (p & 63);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marking() -> Marking {
        Marking::new(vec![1, 0, 5], vec![0.0, 2.5])
    }

    #[test]
    fn token_accessors() {
        let mut m = marking();
        assert_eq!(m.tokens(PlaceId(0)), 1);
        assert!(m.has_token(PlaceId(0)));
        assert!(!m.has_token(PlaceId(1)));
        m.add_tokens(PlaceId(1), 2);
        assert_eq!(m.tokens(PlaceId(1)), 2);
        m.remove_tokens(PlaceId(2), 5);
        assert_eq!(m.tokens(PlaceId(2)), 0);
        m.set_tokens(PlaceId(2), 7);
        assert_eq!(m.tokens(PlaceId(2)), 7);
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn underflow_panics() {
        let mut m = marking();
        m.remove_tokens(PlaceId(0), 2);
    }

    #[test]
    fn version_bumps_on_changes_only() {
        let mut m = marking();
        let v0 = m.version();
        m.set_tokens(PlaceId(0), 1); // no-op
        assert_eq!(m.version(), v0);
        m.add_tokens(PlaceId(0), 0); // no-op
        assert_eq!(m.version(), v0);
        m.remove_tokens(PlaceId(0), 0); // no-op
        assert_eq!(m.version(), v0);
        m.set_tokens(PlaceId(0), 3);
        assert!(m.version() > v0);
    }

    #[test]
    fn fluid_accessors() {
        let mut m = marking();
        assert_eq!(m.fluid(FluidId(1)), 2.5);
        m.add_fluid(FluidId(0), 1.5);
        assert_eq!(m.fluid(FluidId(0)), 1.5);
        m.set_fluid(FluidId(0), 0.0);
        assert_eq!(m.fluid(FluidId(0)), 0.0);
    }

    #[test]
    fn integration_does_not_bump_version() {
        let mut m = marking();
        let v = m.version();
        m.integrate_fluid(FluidId(0), 10.0);
        assert_eq!(m.version(), v);
        assert_eq!(m.fluid(FluidId(0)), 10.0);
    }

    #[test]
    fn counts() {
        let m = marking();
        assert_eq!(m.place_count(), 3);
        assert_eq!(m.fluid_count(), 2);
    }

    #[test]
    fn dirty_window_tracks_each_place_once() {
        let mut m = marking();
        m.begin_dirty_window();
        assert!(m.dirty_places().is_empty());
        m.add_tokens(PlaceId(1), 2);
        m.set_tokens(PlaceId(1), 5); // same place: still listed once
        m.remove_tokens(PlaceId(2), 1);
        m.set_tokens(PlaceId(0), 1); // no-op: not dirty
        assert_eq!(m.dirty_places(), &[1, 2]);
        // Fluid mutation and integration never dirty a discrete place.
        m.add_fluid(FluidId(0), 1.0);
        m.integrate_fluid(FluidId(0), 1.0);
        assert_eq!(m.dirty_places(), &[1, 2]);
        // A new window starts clean and re-collects.
        m.begin_dirty_window();
        assert!(m.dirty_places().is_empty());
        m.add_tokens(PlaceId(1), 1);
        assert_eq!(m.dirty_places(), &[1]);
    }

    #[test]
    fn equality_ignores_dirty_bookkeeping() {
        let mut a = marking();
        let mut b = marking();
        a.begin_dirty_window();
        a.add_tokens(PlaceId(0), 1);
        a.remove_tokens(PlaceId(0), 1);
        b.set_tokens(PlaceId(2), 5); // no-op write, no dirty entry
        assert_eq!(a, b, "same tokens/fluid must compare equal");
        assert_ne!(a.dirty_places(), b.dirty_places());
    }

    /// The bits set in `dirty_mask()` and the entries of `dirty_places()`
    /// must always describe the same set.
    fn assert_mask_matches_list(m: &Marking) {
        let mut from_mask: Vec<u32> = Vec::new();
        for (w, &word) in m.dirty_mask().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                from_mask.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        let mut from_list: Vec<u32> = m.dirty_places().to_vec();
        from_list.sort_unstable();
        assert_eq!(from_mask, from_list);
    }

    #[test]
    fn dirty_mask_mirrors_dirty_list_across_words() {
        // 130 places spans three mask words; drive pseudo-random
        // mutations through several windows and check the mirror at
        // every step.
        let mut m = Marking::new(vec![0; 130], vec![]);
        let mut state = 0x9e3779b97f4a7c15u64;
        for window in 0..50 {
            m.begin_dirty_window();
            assert!(m.dirty_places().is_empty());
            assert!(m.dirty_mask().iter().all(|&w| w == 0));
            for _ in 0..(window % 7) + 1 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let place = (state >> 33) as usize % 130;
                m.add_tokens(PlaceId(place), 1);
                assert_mask_matches_list(&m);
            }
        }
    }

    #[test]
    fn nonzero_bitset_tracks_tokens_across_words() {
        let mut m = Marking::new(vec![0; 130], vec![]);
        let bits = |m: &Marking| m.nonzero_words().to_vec();
        assert_eq!(bits(&m), [0, 0, 0]);
        m.add_tokens(PlaceId(129), 2);
        m.set_tokens(PlaceId(64), 1);
        m.add_tokens(PlaceId(0), 1);
        assert_eq!(bits(&m), [1, 1, 1 << 1]);
        m.remove_tokens(PlaceId(129), 1); // one left: still nonzero
        m.remove_tokens(PlaceId(0), 1);
        m.set_tokens(PlaceId(64), 0);
        assert_eq!(bits(&m), [0, 0, 1 << 1]);
        assert_eq!(bits(&Marking::new(vec![3, 0, 1], vec![])), [0b101]);
        // A marking without places still has one (empty) word.
        assert_eq!(bits(&Marking::new(vec![], vec![])), [0]);
    }

    #[test]
    fn ids_display() {
        assert_eq!(PlaceId(4).to_string(), "place#4");
        assert_eq!(FluidId(2).to_string(), "fluid#2");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Oracle equivalence for the dirty bookkeeping: replay a random
        /// interleaving of mutations and window resets against a plain
        /// set-of-dirty-places oracle, and require that the dirty list
        /// and the bitmask both describe exactly the oracle's set after
        /// every operation.
        #[test]
        fn dirty_bitmask_matches_set_oracle(
            places in 1usize..200,
            ops in proptest::collection::vec(
                (0u8..4, 0usize..1_000_000, 0u64..3),
                1..120,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;
            use std::collections::BTreeSet;

            let mut m = Marking::new(vec![1; places], vec![]);
            let mut oracle: BTreeSet<u32> = BTreeSet::new();
            for (op, raw_place, count) in ops {
                let p = PlaceId(raw_place % places);
                match op {
                    0 => {
                        m.begin_dirty_window();
                        oracle.clear();
                    }
                    1 => {
                        if m.tokens(p) != count {
                            oracle.insert(p.0 as u32);
                        }
                        m.set_tokens(p, count);
                    }
                    2 => {
                        if count > 0 {
                            oracle.insert(p.0 as u32);
                        }
                        m.add_tokens(p, count);
                    }
                    _ => {
                        let c = count.min(m.tokens(p));
                        if c > 0 {
                            oracle.insert(p.0 as u32);
                        }
                        m.remove_tokens(p, c);
                    }
                }
                let mut listed: Vec<u32> = m.dirty_places().to_vec();
                listed.sort_unstable();
                let expect: Vec<u32> = oracle.iter().copied().collect();
                prop_assert_eq!(&listed, &expect, "dirty list diverged from the oracle");
                for (w, &word) in m.dirty_mask().iter().enumerate() {
                    for b in 0..64 {
                        let place = (w * 64 + b) as u32;
                        prop_assert_eq!(
                            (word >> b) & 1 == 1,
                            oracle.contains(&place),
                            "mask bit for place {} diverged",
                            place
                        );
                    }
                }
            }
        }
    }
}
