//! Factored (product) outcome spaces.
//!
//! A [`FactoredSpace`] represents a probability space that is a *product* of
//! independent [`DiscreteSpace`] factors without ever materializing the flat
//! cross product: a space with factors of sizes `n₁, …, nₘ` stores
//! `n₁ + … + nₘ` samples but describes `n₁ · … · nₘ` joint outcomes. Global
//! quantities (total mass, residual mass, top-k joint outcomes) are computed
//! by per-factor lookup and exact [`Prob`] factor multiplication.
//!
//! The top-k listing is a lazy best-first merge over per-factor index
//! tuples (a k-way generalization of pairwise merge). Factors are pre-sorted
//! by descending mass, so the all-zeros tuple is the joint maximum. Every
//! other tuple has one *canonical parent*: the tuple with its last nonzero
//! coordinate decremented. That parent is at least as heavy (its factor is
//! sorted by descending mass) and lexicographically smaller, so it precedes
//! the child in the listing order (mass descending, index tuple ascending).
//! A pop therefore pushes only its canonical children — `t + e_f` for every
//! factor `f` at or after its last nonzero coordinate — and the heap still
//! pops exactly that order: each tuple is pushed once, by its parent, and no
//! visited set is needed. A candidate stores only its nonzero coordinates
//! and the folded mass of the coordinates before its last nonzero one, so a
//! child's mass extends its parent's prefix instead of refolding all `m`
//! factors. The cost is at most `m` pushes per pop, however large the full
//! product is.

use crate::probability::Prob;
use crate::space::DiscreteSpace;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A product of independent discrete probability spaces.
///
/// Each factor's samples are kept sorted by descending mass (ties broken by
/// the sample key), which is the precondition for the lazy [`top_k`]
/// merge: the all-zeros index tuple is then guaranteed to be the joint
/// maximum, and incrementing any single coordinate never increases the mass.
///
/// [`top_k`]: FactoredSpace::top_k
#[derive(Clone, Debug)]
pub struct FactoredSpace<T: Ord + Clone> {
    factors: Vec<DiscreteSpace<T>>,
}

/// A heap entry of the lazy product merge: a joint index tuple and its mass.
/// Ordered by mass (descending pops first), ties broken toward the
/// lexicographically smallest tuple so the listing is deterministic.
struct Candidate {
    mass: Prob,
    /// The tuple's nonzero coordinates as `(factor, sample)` pairs in
    /// ascending factor order; every other coordinate is zero.
    nonzero: Vec<(usize, usize)>,
    /// The masses of the coordinates before the last nonzero one, folded
    /// in factor order (`Prob::ONE` for the all-zeros tuple).
    head: Prob,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: larger mass wins; among equal masses the
        // smaller index tuple must pop first, so reverse the tuple order.
        self.mass
            .total_cmp(&other.mass)
            .then_with(|| tuple_cmp(&other.nonzero, &self.nonzero))
    }
}

/// Lexicographic order of two index tuples given by their nonzero
/// coordinates. At the first differing entry, the tuple whose nonzero
/// coordinate sits at the smaller factor is larger there (the other tuple
/// holds a zero); a tuple that runs out first has zeros where the other
/// still has nonzero coordinates.
fn tuple_cmp(a: &[(usize, usize)], b: &[(usize, usize)]) -> Ordering {
    for (&(fa, ia), &(fb, ib)) in a.iter().zip(b) {
        match fb.cmp(&fa).then(ia.cmp(&ib)) {
            Ordering::Equal => {}
            unequal => return unequal,
        }
    }
    a.len().cmp(&b.len())
}

impl<T: Ord + Clone> FactoredSpace<T> {
    /// Build a factored space, sorting each factor's samples into the
    /// canonical (mass-descending, key-ascending) order the lazy merge
    /// relies on.
    pub fn from_factors(factors: Vec<DiscreteSpace<T>>) -> Self {
        let factors = factors
            .into_iter()
            .map(|f| {
                let mut samples: Vec<(T, Prob)> = f.iter().cloned().collect();
                samples.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                DiscreteSpace::from_samples(samples)
            })
            .collect();
        FactoredSpace { factors }
    }

    /// Number of factors.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// The factors, each sorted by descending mass.
    pub fn factors(&self) -> &[DiscreteSpace<T>] {
        &self.factors
    }

    /// One factor by index.
    pub fn factor(&self, i: usize) -> &DiscreteSpace<T> {
        &self.factors[i]
    }

    /// Total explored mass: the product of the per-factor explored masses
    /// (exactly one when every factor was fully explored). The empty product
    /// is one, matching the flat convention for a space with no choices.
    pub fn total_mass(&self) -> Prob {
        Prob::product(self.factors.iter().map(|f| f.total_mass()))
    }

    /// Unexplored mass: `1 − total_mass()`, clamped at zero against float
    /// dust from approximate factors.
    pub fn residual_mass(&self) -> Prob {
        let r = Prob::ONE.sub(&self.total_mass());
        if r.to_f64() < 0.0 {
            Prob::ZERO
        } else {
            r
        }
    }

    /// Number of joint samples the flat cross product would hold, saturating
    /// at `u128::MAX` (a `coin_farm_n100`-style space has `2^100` of them —
    /// the whole point is never to enumerate these).
    pub fn combined_samples(&self) -> u128 {
        self.factors
            .iter()
            .fold(1u128, |acc, f| acc.saturating_mul(f.len() as u128))
    }

    /// Sum of the per-factor sample counts — the number of samples actually
    /// stored.
    pub fn stored_samples(&self) -> usize {
        self.factors.iter().map(|f| f.len()).sum()
    }

    /// The `k` heaviest joint samples, each as one sample reference per
    /// factor with the product mass folded in factor order, in
    /// (mass-descending, index-tuple-ascending) order — computed by the
    /// canonical-parent merge without materializing the cross product.
    ///
    /// Returns fewer than `k` entries only when the whole product has fewer;
    /// an empty factor makes the product empty.
    pub fn top_k(&self, k: usize) -> Vec<(Vec<&T>, Prob)> {
        if k == 0 || self.factors.iter().any(|f| f.is_empty()) {
            return Vec::new();
        }
        let samples: Vec<Vec<&(T, Prob)>> =
            self.factors.iter().map(|f| f.iter().collect()).collect();
        // The mass of a tuple whose coordinates from `from` on are all zero,
        // given the fold of the ones before: `prefix` folded on through each
        // later factor's heaviest sample, in the order `Prob::product` over
        // the whole tuple would use.
        let zeros: Vec<Prob> = samples.iter().map(|s| s[0].1).collect();
        let fold_zeros =
            |prefix: Prob, from: usize| zeros[from..].iter().fold(prefix, |acc, z| acc.mul(z));

        let mut heap = BinaryHeap::new();
        heap.push(Candidate {
            mass: fold_zeros(Prob::ONE, 0),
            nonzero: Vec::new(),
            head: Prob::ONE,
        });
        let size = usize::try_from(self.combined_samples()).unwrap_or(usize::MAX);
        let mut out = Vec::with_capacity(k.min(size));
        while out.len() < k {
            let Some(Candidate {
                mass,
                nonzero,
                head,
            }) = heap.pop()
            else {
                break;
            };
            // The canonical children: bump the last nonzero coordinate
            // (coordinate 0 for the all-zeros tuple), or set a later one to 1.
            // `prefix` is the fold of the coordinates before `f`.
            let (last, at) = nonzero.last().copied().unwrap_or((0, 0));
            let mut prefix = head;
            for (f, s) in samples.iter().enumerate().skip(last) {
                let i = if f == last { at } else { 0 };
                if let Some(next) = s.get(i + 1) {
                    let mut child = Vec::with_capacity(nonzero.len() + 1);
                    child.extend_from_slice(&nonzero);
                    match child.last_mut() {
                        Some(entry) if f == last => entry.1 += 1,
                        _ => child.push((f, 1)),
                    }
                    heap.push(Candidate {
                        mass: fold_zeros(prefix.mul(&next.1), f + 1),
                        nonzero: child,
                        head: prefix,
                    });
                }
                prefix = prefix.mul(&s[i].1);
            }
            let mut parts: Vec<&T> = samples.iter().map(|s| &s[0].0).collect();
            for &(f, i) in &nonzero {
                parts[f] = &samples[f][i].0;
            }
            out.push((parts, mass));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin(head_mass: Prob) -> DiscreteSpace<&'static str> {
        let mut s = DiscreteSpace::new();
        s.push("H", head_mass);
        s.push("T", head_mass.complement());
        s
    }

    #[test]
    fn product_masses_and_counts() {
        let space = FactoredSpace::from_factors(vec![
            coin(Prob::ratio(1, 2)),
            coin(Prob::ratio(1, 4)),
            coin(Prob::ratio(1, 8)),
        ]);
        assert_eq!(space.factor_count(), 3);
        assert_eq!(space.total_mass(), Prob::ONE);
        assert_eq!(space.residual_mass(), Prob::ZERO);
        assert_eq!(space.combined_samples(), 8);
        assert_eq!(space.stored_samples(), 6);
    }

    #[test]
    fn top_k_is_the_lazy_joint_maximum_walk() {
        let space = FactoredSpace::from_factors(vec![
            coin(Prob::ratio(1, 4)),  // sorted: T 3/4, H 1/4
            coin(Prob::ratio(1, 10)), // sorted: T 9/10, H 1/10
        ]);
        let top = space.top_k(4);
        assert_eq!(top.len(), 4);
        // (T,T) 27/40, (T,H) 3/40·... compute: 3/4·9/10=27/40, 3/4·1/10=3/40,
        // 1/4·9/10=9/40, 1/4·1/10=1/40.
        assert_eq!(top[0].0, vec![&"T", &"T"]);
        assert_eq!(top[0].1, Prob::ratio(27, 40));
        assert_eq!(top[1].0, vec![&"H", &"T"]);
        assert_eq!(top[1].1, Prob::ratio(9, 40));
        assert_eq!(top[2].0, vec![&"T", &"H"]);
        assert_eq!(top[2].1, Prob::ratio(3, 40));
        assert_eq!(top[3].0, vec![&"H", &"H"]);
        assert_eq!(top[3].1, Prob::ratio(1, 40));
    }

    #[test]
    fn top_k_stops_at_the_product_size_and_handles_empties() {
        let space = FactoredSpace::from_factors(vec![coin(Prob::ratio(1, 2))]);
        assert_eq!(space.top_k(10).len(), 2);
        assert_eq!(space.top_k(0).len(), 0);
        let empty = FactoredSpace::from_factors(vec![
            coin(Prob::ratio(1, 2)),
            DiscreteSpace::<&'static str>::new(),
        ]);
        assert_eq!(empty.combined_samples(), 0);
        assert!(empty.top_k(3).is_empty());
    }

    #[test]
    fn huge_products_never_materialize() {
        // 100 fair coins: 2^100 joint samples; top_k(5) must answer
        // instantly with exact dyadic masses.
        let factors: Vec<_> = (0..100).map(|_| coin(Prob::ratio(1, 2))).collect();
        let space = FactoredSpace::from_factors(factors);
        assert_eq!(space.combined_samples(), 1u128 << 100);
        assert_eq!(space.total_mass(), Prob::ONE);
        let top = space.top_k(5);
        assert_eq!(top.len(), 5);
        for (_, mass) in &top {
            assert!(mass.is_exact(), "dyadic product degraded to float");
        }
        // All 2^100 joint samples are equally likely: each mass is 1/2^100.
        assert_eq!(top[0].1, top[4].1);
        // Saturation: 200 ternary factors overflow u128.
        let mut big = DiscreteSpace::new();
        big.push("a", Prob::ratio(1, 3));
        big.push("b", Prob::ratio(1, 3));
        big.push("c", Prob::ratio(1, 3));
        let sat = FactoredSpace::from_factors((0..200).map(|_| big.clone()).collect());
        assert_eq!(sat.combined_samples(), u128::MAX);
    }

    #[test]
    fn residual_mass_multiplies_truncated_factors() {
        let mut truncated = DiscreteSpace::new();
        truncated.push("seen", Prob::ratio(3, 4)); // 1/4 unexplored
        let space = FactoredSpace::from_factors(vec![truncated.clone(), coin(Prob::ratio(1, 2))]);
        assert_eq!(space.total_mass(), Prob::ratio(3, 4));
        assert_eq!(space.residual_mass(), Prob::ratio(1, 4));
        let both = FactoredSpace::from_factors(vec![truncated.clone(), truncated]);
        assert_eq!(both.total_mass(), Prob::ratio(9, 16));
        assert_eq!(both.residual_mass(), Prob::ratio(7, 16));
    }

    #[test]
    fn ties_resolve_toward_the_smaller_index_tuple() {
        // Two identical fair coins: four equal-mass joint samples; the
        // listing must be in index (hence key) order, deterministically.
        let space =
            FactoredSpace::from_factors(vec![coin(Prob::ratio(1, 2)), coin(Prob::ratio(1, 2))]);
        let keys: Vec<Vec<&&str>> = space.top_k(4).into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                vec![&"H", &"H"],
                vec![&"H", &"T"],
                vec![&"T", &"H"],
                vec![&"T", &"T"],
            ]
        );
    }

    #[test]
    fn top_k_past_the_product_size_returns_the_whole_product() {
        let space = FactoredSpace::from_factors(vec![
            coin(Prob::ratio(1, 3)),
            coin(Prob::ratio(1, 2)),
            coin(Prob::ratio(1, 5)),
        ]);
        let all = space.top_k(usize::MAX);
        assert_eq!(all.len(), 8);
        assert_eq!(all, space.top_k(8));
        assert_eq!(Prob::sum(all.iter().map(|(_, m)| *m)), Prob::ONE);
    }

    /// Every joint sample of the product, sorted by (mass descending, index
    /// tuple ascending) with each mass folded in factor order: the listing
    /// `top_k` must reproduce prefix by prefix.
    fn brute_force(space: &FactoredSpace<usize>) -> Vec<(Vec<&usize>, Prob)> {
        let mut tuples: Vec<Vec<usize>> = vec![Vec::new()];
        for f in space.factors() {
            tuples = tuples
                .into_iter()
                .flat_map(|t| {
                    (0..f.len()).map(move |i| {
                        let mut t = t.clone();
                        t.push(i);
                        t
                    })
                })
                .collect();
        }
        let sample = |f: usize, i: usize| space.factor(f).iter().nth(i).unwrap();
        let mut joint: Vec<(Vec<usize>, Prob)> = tuples
            .into_iter()
            .map(|t| {
                let mass = Prob::product(t.iter().enumerate().map(|(f, &i)| sample(f, i).1));
                (t, mass)
            })
            .collect();
        joint.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        joint
            .into_iter()
            .map(|(t, mass)| {
                let keys = t.iter().enumerate().map(|(f, &i)| &sample(f, i).0);
                (keys.collect(), mass)
            })
            .collect()
    }

    #[test]
    fn top_k_matches_the_sorted_cross_product() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Few distinct masses, so equal-mass ties are common; two of them
        // are not short decimals and stay approximate.
        let masses = [
            Prob::ratio(1, 2),
            Prob::ratio(1, 4),
            Prob::ratio(1, 4),
            Prob::ratio(3, 10),
            Prob::ratio(1, 5),
            Prob::from_f64(1.0 / 3.0),
            Prob::from_f64(std::f64::consts::FRAC_1_SQRT_2),
        ];
        assert!(!masses[5].is_exact() && !masses[6].is_exact());
        let mut rng = StdRng::seed_from_u64(14);
        for case in 0..300 {
            let factors: Vec<DiscreteSpace<usize>> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    let n = rng.gen_range(1..=4);
                    DiscreteSpace::from_samples(
                        (0..n).map(|i| (i, masses[rng.gen_range(0..masses.len())])),
                    )
                })
                .collect();
            let space = FactoredSpace::from_factors(factors);
            let expected = brute_force(&space);
            let size = expected.len();
            // Every prefix up to the product size; past a few hundred
            // samples a stride keeps the sweep fast.
            let step = if size <= 256 { 1 } else { 37 };
            let ks = (0..=size).step_by(step).chain([size, size + 1, usize::MAX]);
            for k in ks {
                let top = space.top_k(k);
                let want = &expected[..k.min(size)];
                assert_eq!(top.len(), want.len(), "case {case}, k = {k}");
                for (j, (got, want)) in top.iter().zip(want).enumerate() {
                    assert_eq!(got.0, want.0, "case {case}, k = {k}, rank {j}");
                    // `Prob`'s `==` compares an exact and an approximate
                    // value by rounding; the fold must match variant too.
                    assert_eq!(
                        (got.1.is_exact(), got.1),
                        (want.1.is_exact(), want.1),
                        "case {case}, k = {k}, rank {j}"
                    );
                }
            }
        }
    }
}
