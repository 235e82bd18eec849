//! Seeded initial condition: solid lamellae under (or, with a periodic z,
//! inside) the melt. The seed draws the phase order of the lamellae, a
//! front-height jitter of -1, 0 or +1 cell per lamella and a chemical
//! potential offset in [0.08, 0.12] per component. The program only ever
//! sees the closures built from this.

/// splitmix64: small, seedable, the same on every platform.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Width of the diffuse front the profile starts from, in cells.
const FRONT_WIDTH: f64 = 2.0;

#[derive(Clone, Debug, PartialEq)]
pub struct Lamellae {
    phases: usize,
    liquid: usize,
    /// Solid phase of each lamella, along x.
    phase_of: Vec<usize>,
    /// Front height of each lamella, in cells.
    front: Vec<f64>,
    width: usize,
    /// Lower end of the solid slab when z is periodic (the slab then has
    /// two fronts); `None` = solid from the z = 0 wall up to the front.
    slab_from: Option<f64>,
    mu: Vec<f64>,
}

impl Lamellae {
    pub fn new(
        seed: u64,
        phases: usize,
        liquid: usize,
        num_mu: usize,
        shape: [usize; 3],
        periodic_z: bool,
    ) -> Lamellae {
        let mut rng = SplitMix::new(seed);
        let mut solids: Vec<usize> = (0..phases).filter(|&a| a != liquid).collect();
        for i in (1..solids.len()).rev() {
            solids.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let width = (shape[0] / (2 * solids.len())).max(4).min(shape[0]);
        let count = shape[0].div_ceil(width);
        // A 2-D model keeps shape[2] = 1 and grows along y.
        let height = if shape[2] > 1 { shape[2] } else { shape[1] } as f64;
        let (slab_from, base) = if periodic_z {
            (Some(0.25 * height), 0.75 * height)
        } else {
            (None, 0.25 * height)
        };
        let front = (0..count)
            .map(|_| base + (rng.next_u64() % 3) as f64 - 1.0)
            .collect();
        let phase_of = (0..count).map(|i| solids[i % solids.len()]).collect();
        let mu = (0..num_mu).map(|_| 0.08 + 0.04 * rng.unit()).collect();
        Lamellae {
            phases,
            liquid,
            phase_of,
            front,
            width,
            slab_from,
            mu,
        }
    }

    /// Phase vector of the cell at `(x, h)`, `h` the coordinate along the
    /// growth direction.
    pub fn phi(&self, x: i64, h: i64) -> Vec<f64> {
        let lamella = (x.max(0) as usize / self.width).min(self.phase_of.len() - 1);
        let h = h as f64 + 0.5;
        let below_front = 0.5 * (1.0 - ((h - self.front[lamella]) / FRONT_WIDTH).tanh());
        let solid = match self.slab_from {
            Some(from) => below_front * 0.5 * (1.0 + ((h - from) / FRONT_WIDTH).tanh()),
            None => below_front,
        };
        let mut v = vec![0.0; self.phases];
        v[self.liquid] = 1.0 - solid;
        v[self.phase_of[lamella]] = solid;
        v
    }

    pub fn mu(&self) -> Vec<f64> {
        self.mu.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(l: &Lamellae, shape: [usize; 3]) -> Vec<u64> {
        let mut out: Vec<u64> = l.mu().iter().map(|v| v.to_bits()).collect();
        for z in 0..shape[2] as i64 {
            for x in 0..shape[0] as i64 {
                out.extend(l.phi(x, z).iter().map(|v| v.to_bits()));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bits_and_other_seed_other_bits() {
        let shape = [48, 48, 48];
        let a = Lamellae::new(1, 4, 0, 2, shape, false);
        let b = Lamellae::new(1, 4, 0, 2, shape, false);
        let c = Lamellae::new(2, 4, 0, 2, shape, false);
        assert_eq!(bits(&a, shape), bits(&b, shape));
        assert_ne!(bits(&a, shape), bits(&c, shape));
    }

    #[test]
    fn cells_lie_on_the_simplex_and_offsets_in_range() {
        for seed in 0..20 {
            for periodic_z in [false, true] {
                let l = Lamellae::new(seed, 4, 0, 2, [16, 16, 16], periodic_z);
                for z in 0..16 {
                    for x in 0..16 {
                        let v = l.phi(x, z);
                        assert!(v.iter().all(|p| (0.0..=1.0).contains(p)));
                        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-15);
                    }
                }
                assert!(l.mu().iter().all(|m| (0.08..=0.12).contains(m)));
                // Solid at the slab's middle, melt at the top.
                let mid = if periodic_z { 8 } else { 0 };
                assert!(l.phi(0, mid)[0] < 0.5);
                assert!(l.phi(0, 15)[0] > 0.5);
            }
        }
    }
}
