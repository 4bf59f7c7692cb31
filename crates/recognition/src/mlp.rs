//! A small multi-layer perceptron with manual backpropagation and Adam.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::tensor::{tanh, tanh_grad_from_output, Adam, Matrix};

/// One fully connected layer `y = W x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Linear {
    w: Matrix,
    b: Vec<f64>,
    w_opt: Adam,
    b_opt: Adam,
}

impl Linear {
    fn new<R: Rng + ?Sized>(input: usize, output: usize, lr: f64, rng: &mut R) -> Linear {
        Linear {
            w: Matrix::glorot(output, input, rng),
            b: vec![0.0; output],
            w_opt: Adam::new(output * input, lr),
            b_opt: Adam::new(output, lr),
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.w.matvec(x);
        for (yi, bi) in y.iter_mut().zip(&self.b) {
            *yi += bi;
        }
        y
    }
}

/// A feed-forward network `features -> tanh hidden layers -> linear logits`.
///
/// Serializable (weights, biases, and Adam moments) so recognition
/// models survive checkpoint/resume bit-for-bit. Its widths are its first
/// and last layers'.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Cached activations from a forward pass, needed for backprop.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// Input followed by the output of each layer (post-activation).
    activations: Vec<Vec<f64>>,
}

impl ForwardTrace {
    /// The network output (logits).
    pub fn output(&self) -> &[f64] {
        self.activations.last().expect("nonempty trace")
    }
}

impl Mlp {
    /// Build a network with the given layer sizes, e.g. `[64, 32, 10]`
    /// makes `64 -> tanh(32) -> 10`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], lr: f64, rng: &mut R) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], lr, rng))
            .collect();
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].w.cols
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].w.rows
    }

    /// Check every shape the network indexes by: it has a layer, each
    /// layer stores `rows × cols` weights, one bias per row and Adam
    /// moments as long as the tensors they update, and each layer takes
    /// as many inputs as the one before gives.
    ///
    /// # Errors
    /// A description of the first tensor that does not fit.
    pub fn check_shapes(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("the network has no layers".into());
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let Matrix { rows, cols, data } = &layer.w;
            if rows.checked_mul(*cols) != Some(data.len()) {
                return Err(format!(
                    "layer {i} stores {} weights for a {rows}x{cols} matrix",
                    data.len()
                ));
            }
            if layer.b.len() != *rows {
                return Err(format!(
                    "layer {i} has {} biases for {rows} rows",
                    layer.b.len()
                ));
            }
            if !layer.w_opt.fits(data.len()) || !layer.b_opt.fits(*rows) {
                return Err(format!("layer {i}'s Adam moments do not fit its tensors"));
            }
            if i > 0 && *cols != self.layers[i - 1].w.rows {
                return Err(format!(
                    "layer {i} takes {cols} inputs, layer {} gives {}",
                    i - 1,
                    self.layers[i - 1].w.rows
                ));
            }
        }
        Ok(())
    }

    /// Forward pass, keeping activations for backprop.
    ///
    /// # Panics
    /// Panics if `x.len() != input_dim`.
    pub fn forward(&self, x: &[f64]) -> ForwardTrace {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut activations = vec![x.to_vec()];
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(activations.last().expect("nonempty"));
            let post = if i + 1 < self.layers.len() {
                tanh(&pre)
            } else {
                pre
            };
            activations.push(post);
        }
        ForwardTrace { activations }
    }

    /// Clone this network with a freshly initialized output layer of a
    /// new size, at the old one's learning rate, keeping all hidden layers
    /// (and their optimizer state).
    ///
    /// Used when the library grows during abstraction sleep: the learned
    /// task featurization survives; only the per-production head restarts.
    pub fn with_resized_output<R: Rng + ?Sized>(&self, new_output: usize, rng: &mut R) -> Mlp {
        let mut layers = self.layers.clone();
        let last = layers.last_mut().expect("mlp has at least one layer");
        *last = Linear::new(last.w.cols, new_output, last.w_opt.lr, rng);
        Mlp { layers }
    }

    /// Backpropagate `d loss / d logits` and take one Adam step.
    ///
    /// # Panics
    /// Panics if the gradient length does not match the output dimension.
    pub fn backward(&mut self, trace: &ForwardTrace, grad_output: &[f64]) {
        assert_eq!(grad_output.len(), self.output_dim());
        let mut grad = grad_output.to_vec();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let input = &trace.activations[i];
            let output = &trace.activations[i + 1];
            // For hidden layers the stored activation is post-tanh: fold the
            // activation derivative into the incoming gradient.
            if i + 1 < trace.activations.len() - 1 {
                let d = tanh_grad_from_output(output);
                for (g, di) in grad.iter_mut().zip(&d) {
                    *g *= di;
                }
            }
            // Gradients.
            let mut wg = vec![0.0; layer.w.rows * layer.w.cols];
            for r in 0..layer.w.rows {
                for c in 0..layer.w.cols {
                    wg[r * layer.w.cols + c] = grad[r] * input[c];
                }
            }
            let next_grad = layer.w.matvec_transposed(&grad);
            layer.w_opt.step(&mut layer.w.data, &wg);
            layer.b_opt.step(&mut layer.b, &grad);
            grad = next_grad;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mlp_learns_xor() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut net = Mlp::new(&[2, 8, 1], 0.02, &mut rng);
        let data = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        for _ in 0..2000 {
            for (x, y) in &data {
                let trace = net.forward(x);
                let pred = trace.output()[0];
                // squared loss gradient
                net.backward(&trace, &[2.0 * (pred - y)]);
            }
        }
        for (x, y) in &data {
            let pred = net.forward(x).output()[0];
            assert!((pred - y).abs() < 0.25, "xor({x:?}) = {pred}, want {y}");
        }
    }

    #[test]
    fn forward_dimensions() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let net = Mlp::new(&[5, 7, 3], 0.01, &mut rng);
        assert_eq!(net.input_dim(), 5);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.forward(&[0.0; 5]).output().len(), 3);
    }
}
