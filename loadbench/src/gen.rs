//! Seeded generators for the benchmark's conditionals.
//!
//! Every conditional comes with what the generator knows about its law
//! from its own parameters, computed here and never by the backend under
//! test: linear-Gaussian chains have a closed form evaluated by this
//! module's own normal CDF, and GPS walks either carry a provable bound
//! (decisive limits) or a limit placed at a quantile of this module's
//! own Monte Carlo simulation (near-threshold limits, not checked).

use std::f64::consts::TAU;
use uncertain_core::Uncertain;

/// SplitMix64: the generator's only source of randomness, so inputs are
/// a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One avalanche step: derives independent generator streams from
/// `(seed, purpose, index)` keys.
pub fn mix(z: u64) -> u64 {
    SplitMix::new(z).next_u64()
}

/// Standard normal CDF by composite Simpson integration of the density
/// (256 panels; absolute error below 1e-8 for |z| ≤ 6).
fn normal_cdf(z: f64) -> f64 {
    const PANELS: usize = 256;
    let a = z.abs().min(12.0);
    let h = a / PANELS as f64;
    let pdf = |t: f64| (-0.5 * t * t).exp() / TAU.sqrt();
    let mut sum = pdf(0.0) + pdf(a);
    for i in 1..PANELS {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * pdf(i as f64 * h);
    }
    let half = sum * h / 3.0;
    if z >= 0.0 {
        0.5 + half
    } else {
        0.5 - half
    }
}

/// Which family a conditional belongs to (per-class metrics key on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Linear-Gaussian chain conjoined with a Bernoulli vote.
    Chain,
    /// GPS-walk average-speed conditional.
    Gps,
    /// A chain deeper than the runtime's plan-depth limit.
    Deep,
}

/// A conditional `Pr[cond] > threshold` and what the generator knows
/// about `Pr[cond]`.
#[derive(Clone)]
pub struct Query {
    pub cond: Uncertain<bool>,
    pub threshold: f64,
    pub class: Class,
    /// `Pr[cond]`: exact for chains; for decisive GPS walks, 1.0 or 0.0
    /// standing for a bound within 1e-6 of it; `None` when unknown.
    pub p: Option<f64>,
}

impl Query {
    /// The verdict the generator's own law implies, when `p` is far
    /// enough from the threshold that any correct backend must agree.
    pub fn known_verdict(&self) -> Option<bool> {
        let p = self.p?;
        ((p - self.threshold).abs() > 0.1).then_some(p > self.threshold)
    }
}

/// Threshold far on the opposite side of `p`, so the SPRT stops after
/// its first batch or two.
fn decisive_threshold(p: f64) -> f64 {
    if p > 0.5 {
        0.2
    } else {
        0.8
    }
}

fn normal(mean: f64, sd: f64) -> Uncertain<f64> {
    Uncertain::normal(mean, sd).expect("generator draws valid normal parameters")
}

/// `links`-step linear-Gaussian chain `acc = a·acc + xᵢ`, compared against
/// a cut `z ∈ [3, 4.5]` standard deviations from its mean on a random
/// side, and-ed with an or-vote over `votes` independent Bernoulli leaves
/// (disjoint from the chain, so `Pr` multiplies).
pub fn chain(rng: &mut SplitMix, links: usize, votes: usize) -> Query {
    let (m, s) = (rng.range(-1.0, 1.0), rng.range(0.5, 2.0));
    let mut acc = normal(m, s);
    let (mut mean, mut var) = (m, s * s);
    for _ in 1..links {
        let a = rng.range(0.85, 1.0);
        let (m, s) = (rng.range(-1.0, 1.0), rng.range(0.5, 2.0));
        acc = acc * a + normal(m, s);
        mean = mean * a + m;
        var = var * a * a + s * s;
    }
    let sd = var.sqrt();
    let z = rng.range(3.0, 4.5);
    let (cmp, p_cmp) = if rng.unit() < 0.5 {
        (acc.gt(mean - z * sd), normal_cdf(z))
    } else {
        (acc.gt(mean + z * sd), normal_cdf(-z))
    };
    let mut cond = cmp;
    let mut p = p_cmp;
    if votes > 0 {
        let mut none = 1.0;
        let mut vote: Option<Uncertain<bool>> = None;
        for _ in 0..votes {
            let q = rng.range(0.8, 0.97);
            none *= 1.0 - q;
            let coin = Uncertain::bernoulli(q).expect("vote probability in (0, 1)");
            vote = Some(match vote {
                None => coin,
                Some(v) => &v | &coin,
            });
        }
        cond = &cond & &vote.expect("at least one vote");
        p *= 1.0 - none;
    }
    Query {
        threshold: decisive_threshold(p),
        cond,
        class: Class::Chain,
        p: Some(p),
    }
}

/// A chain deep enough to exceed the runtime's plan-depth limit (2500):
/// each link adds a scale and a sum node.
pub fn deep_chain(rng: &mut SplitMix) -> Query {
    let mut q = chain(rng, 1300, 2);
    q.class = Class::Deep;
    q
}

/// Parameters of a straight walk observed by `fixes` GPS fixes one second
/// apart; each fix's true position is the reported one plus an error of
/// Rayleigh(`rho`) radius in a uniform direction.
struct Walk {
    fixes: usize,
    speed: f64,
    heading: f64,
    rho: f64,
}

impl Walk {
    fn random(rng: &mut SplitMix, fixes: usize) -> Self {
        Walk {
            fixes,
            speed: rng.range(1.2, 1.6),
            heading: rng.range(0.0, TAU),
            rho: rng.range(1.5, 2.5),
        }
    }

    fn seconds(&self) -> f64 {
        (self.fixes - 1) as f64
    }

    /// The average-speed network: path length over the noisy fixes
    /// divided by elapsed time, in m/s. Each fix's error radius and angle
    /// are shared by its x and y coordinates, and each fix by its two
    /// segments.
    fn speed_network(&self) -> Uncertain<f64> {
        let (dx, dy) = (self.heading.cos(), self.heading.sin());
        let points: Vec<(Uncertain<f64>, Uncertain<f64>)> = (0..self.fixes)
            .map(|i| {
                let travelled = i as f64 * self.speed;
                let r = Uncertain::rayleigh(self.rho).expect("positive GPS error scale");
                let angle = Uncertain::uniform(0.0, TAU).expect("valid angle range");
                let x = &r * &angle.cos() + travelled * dx;
                let y = &r * &angle.sin() + travelled * dy;
                (x, y)
            })
            .collect();
        let mut path: Option<Uncertain<f64>> = None;
        for w in points.windows(2) {
            let ex = &w[1].0 - &w[0].0;
            let ey = &w[1].1 - &w[0].1;
            let segment = (ex.powi(2) + ey.powi(2)).sqrt();
            path = Some(match path {
                None => segment,
                Some(p) => p + segment,
            });
        }
        path.expect("a walk has at least two fixes") / self.seconds()
    }

    /// One draw of the network's average speed, simulated independently
    /// of the library.
    fn simulate(&self, rng: &mut SplitMix) -> f64 {
        let (dx, dy) = (self.heading.cos(), self.heading.sin());
        let mut prev: Option<(f64, f64)> = None;
        let mut path = 0.0;
        for i in 0..self.fixes {
            let r = self.rho * (-2.0 * (1.0 - rng.unit()).ln()).sqrt();
            let a = rng.range(0.0, TAU);
            let travelled = i as f64 * self.speed;
            let p = (r * a.cos() + travelled * dx, r * a.sin() + travelled * dy);
            if let Some(q) = prev {
                path += ((p.0 - q.0).powi(2) + (p.1 - q.1).powi(2)).sqrt();
            }
            prev = Some(p);
        }
        path / self.seconds()
    }
}

/// A long GPS walk (`fixes` ≥ 35) with a limit far from its speed, so the
/// answer follows from the triangle inequality:
///
/// * low limit `v/4`: speed ≤ v/4 needs `r₁ + r_N ≥ 3D/4` (D = v·T ≥ 40 m,
///   ρ ≤ 2.5), probability below 1e-7;
/// * high limit `v + 6ρN/T`: speed exceeds it only if the mean error
///   radius exceeds 3ρ, more than 13 standard errors above its mean.
pub fn gps_decisive(rng: &mut SplitMix, fixes: usize) -> Query {
    assert!(fixes >= 35, "the bounds assume a walk of 35 fixes or more");
    let walk = Walk::random(rng, fixes);
    let fast = rng.unit() < 0.5;
    let limit = if fast {
        walk.speed / 4.0
    } else {
        walk.speed + 6.0 * walk.rho * fixes as f64 / walk.seconds()
    };
    let p = if fast { 1.0 } else { 0.0 };
    Query {
        cond: walk.speed_network().gt(limit),
        threshold: decisive_threshold(p),
        class: Class::Gps,
        p: Some(p),
    }
}

/// The `i`-th of `n` short GPS walks (2–4 fixes) whose limit sits at the
/// `1 − p` quantile of 10 000 simulated speeds, with the decision
/// threshold a few points above `p`: inside the SPRT's indifference
/// region, so the test needs on the order of a hundred samples. Fix
/// count, `p` and the gap are spread evenly over `i`, so the mix is the
/// same for every seed. The verdict is not checked.
pub fn gps_near(rng: &mut SplitMix, i: usize, n: usize) -> Query {
    let fixes = 2 + i % 3;
    let walk = Walk::random(rng, fixes);
    let p = 0.3 + 0.3 * i as f64 / n as f64;
    let gap = 0.02 + 0.03 * ((i * 7) % n) as f64 / n as f64;
    let mut sim = SplitMix::new(rng.next_u64());
    let mut speeds: Vec<f64> = (0..10_000).map(|_| walk.simulate(&mut sim)).collect();
    speeds.sort_by(|a, b| a.partial_cmp(b).expect("simulated speeds are finite"));
    let limit = speeds[((1.0 - p) * speeds.len() as f64) as usize];
    Query {
        cond: walk.speed_network().gt(limit),
        threshold: p + gap,
        class: Class::Gps,
        p: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((normal_cdf(1.96) - 0.975_002_104_851_78).abs() < 1e-8);
        assert!((normal_cdf(-3.0) - 0.001_349_898_031_630_1).abs() < 1e-9);
    }
}
