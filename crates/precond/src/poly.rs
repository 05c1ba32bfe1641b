//! Polynomial utilities: monomial-coefficient arithmetic and the
//! floating-point stability bound of the paper's Eq. 24.
//!
//! The *application* of a polynomial preconditioner never touches monomial
//! coefficients (it runs a three-term recurrence on vectors); the monomial
//! form exists for the diagnostics of Figs. 1–3 — residual-polynomial plots
//! and the accumulated-roundoff bound `‖z_fl − z‖ ≤ mε Σ|aᵢ|‖v‖`.

/// A real polynomial in monomial form: `p(λ) = Σ coeffs[i] λ^i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Poly {
    /// Monomial coefficients, index = power. Highest entry may be zero.
    pub coeffs: Vec<f64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: vec![] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Poly { coeffs: vec![c] }
    }

    /// Degree (0 for the zero polynomial; trailing zeros ignored).
    pub fn degree(&self) -> usize {
        self.coeffs.iter().rposition(|&c| c != 0.0).unwrap_or(0)
    }

    /// Evaluates `p(x)` by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// `self + alpha * other`.
    pub fn add_scaled(&self, alpha: f64, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            coeffs[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            coeffs[i] += alpha * c;
        }
        Poly { coeffs }
    }

    /// `(a x + b) * self` — the step used by three-term recurrences.
    pub fn mul_linear(&self, a: f64, b: f64) -> Poly {
        let mut coeffs = vec![0.0; self.coeffs.len() + 1];
        for (i, &c) in self.coeffs.iter().enumerate() {
            coeffs[i] += b * c;
            coeffs[i + 1] += a * c;
        }
        Poly { coeffs }
    }

    /// `alpha * self`.
    pub fn scale(&self, alpha: f64) -> Poly {
        Poly {
            coeffs: self.coeffs.iter().map(|&c| alpha * c).collect(),
        }
    }

    /// Sum of absolute monomial coefficients `Σ|aᵢ|` — the growth factor in
    /// the stability bound of Eq. 24.
    pub fn abs_coeff_sum(&self) -> f64 {
        self.coeffs.iter().map(|c| c.abs()).sum()
    }
}

/// The paper's floating-point stability bound (Eq. 24):
/// `‖z_fl − z‖₂ ≤ m ε Σ|aᵢ|` for `‖v‖ = 1`, where `m` is the polynomial
/// degree, `ε` the machine roundoff and `aᵢ` the monomial coefficients.
pub fn stability_bound(p: &Poly, machine_eps: f64) -> f64 {
    p.degree() as f64 * machine_eps * p.abs_coeff_sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_by_horner_matches_direct() {
        let p = Poly {
            coeffs: vec![1.0, -2.0, 3.0],
        }; // 1 - 2x + 3x^2
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(1.0), 2.0);
        assert_eq!(p.eval(2.0), 9.0);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn degree_ignores_trailing_zeros() {
        let p = Poly {
            coeffs: vec![1.0, 2.0, 0.0, 0.0],
        };
        assert_eq!(p.degree(), 1);
        assert_eq!(Poly::zero().degree(), 0);
        assert_eq!(Poly::constant(5.0).degree(), 0);
    }

    #[test]
    fn add_scaled_combines() {
        let p = Poly {
            coeffs: vec![1.0, 1.0],
        };
        let q = Poly {
            coeffs: vec![0.0, 0.0, 2.0],
        };
        let r = p.add_scaled(0.5, &q);
        assert_eq!(r.coeffs, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn mul_linear_is_polynomial_multiplication() {
        // (2x + 3)(1 + x) = 3 + 5x + 2x^2
        let p = Poly {
            coeffs: vec![1.0, 1.0],
        };
        let r = p.mul_linear(2.0, 3.0);
        assert_eq!(r.coeffs, vec![3.0, 5.0, 2.0]);
    }

    #[test]
    fn chebyshev_recurrence_via_mul_linear() {
        // T_{k+1} = 2x T_k - T_{k-1}; T_3 = 4x^3 - 3x.
        let t0 = Poly::constant(1.0);
        let t1 = Poly {
            coeffs: vec![0.0, 1.0],
        };
        let t2 = t1.mul_linear(2.0, 0.0).add_scaled(-1.0, &t0);
        let t3 = t2.mul_linear(2.0, 0.0).add_scaled(-1.0, &t1);
        assert_eq!(t2.coeffs, vec![-1.0, 0.0, 2.0]);
        assert_eq!(t3.coeffs, vec![0.0, -3.0, 0.0, 4.0]);
        // |T_k(x)| <= 1 on [-1, 1].
        for i in 0..=20 {
            let x = -1.0 + 0.1 * i as f64;
            assert!(t3.eval(x).abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn stability_bound_grows_with_coefficients() {
        let small = Poly {
            coeffs: vec![1.0, 1.0, 1.0],
        };
        let large = Poly {
            coeffs: vec![1e6, -1e6, 1.0],
        };
        let eps = f64::EPSILON;
        assert!(stability_bound(&large, eps) > stability_bound(&small, eps));
        assert_eq!(stability_bound(&Poly::constant(1.0), eps), 0.0);
    }
}
