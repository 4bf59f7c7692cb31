//! Minimal dense linear algebra for the recognition network.
//!
//! The paper trains its recognition model with PyTorch; offline we
//! implement the few operations an MLP needs (matrix-vector products,
//! elementwise nonlinearities, Adam) directly. `f64` throughout — the
//! networks are tiny, numerical robustness matters more than speed.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn glorot<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// `y = W x` for a vector `x` of length `cols`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *yr = row.iter().zip(x).map(|(w, xi)| w * xi).sum();
        }
        y
    }

    /// `y = Wᵀ x` for a vector `x` of length `rows`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transposed dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, xr) in x.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, w) in y.iter_mut().zip(row) {
                *yc += w * xr;
            }
        }
        y
    }
}

/// Adam's first-moment decay rate.
const BETA1: f64 = 0.9;
/// Adam's second-moment decay rate.
const BETA2: f64 = 0.999;
/// Adam's denominator floor.
const EPS: f64 = 1e-8;

/// Adam optimizer state for one parameter tensor.
///
/// Serializable so checkpoints capture optimizer moments: resuming a
/// training run mid-trajectory then matches an uninterrupted one
/// bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    /// Learning rate.
    pub lr: f64,
}

impl Adam {
    /// Fresh state for `n` parameters at learning rate `lr`.
    pub fn new(n: usize, lr: f64) -> Adam {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr,
        }
    }

    /// Whether both moments hold `n` entries, one per parameter of an
    /// `n`-parameter tensor.
    pub fn fits(&self, n: usize) -> bool {
        self.m.len() == n && self.v.len() == n
    }

    /// Apply one update: `params -= lr * m̂ / (sqrt(v̂) + eps)`.
    ///
    /// # Panics
    /// Panics if slices disagree in length with the state.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * grads[i];
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// Elementwise tanh.
pub fn tanh(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| v.tanh()).collect()
}

/// Derivative of tanh given its *output* `y = tanh(x)`: `1 - y²`.
pub fn tanh_grad_from_output(y: &[f64]) -> Vec<f64> {
    y.iter().map(|v| 1.0 - v * v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_known_values() {
        let w = Matrix {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        assert_eq!(w.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(w.matvec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn glorot_is_bounded() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let w = Matrix::glorot(10, 10, &mut rng);
        let limit = (6.0 / 20.0f64).sqrt();
        assert!(w.data.iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // minimize (x - 3)^2
        let mut x = vec![0.0];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn tanh_grad_matches_finite_difference() {
        let x = [0.3, -1.2, 2.0];
        let y = tanh(&x);
        let g = tanh_grad_from_output(&y);
        for (i, xi) in x.iter().enumerate() {
            let fd = ((xi + 1e-6).tanh() - (xi - 1e-6).tanh()) / 2e-6;
            assert!((g[i] - fd).abs() < 1e-6);
        }
    }
}
