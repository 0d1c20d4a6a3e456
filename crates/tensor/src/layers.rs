//! Reusable neural layers built on the autograd graph.
//!
//! Layers own [`ParamId`]s in a shared [`ParamStore`]; `forward` methods take
//! the current tape and input [`Var`]s, mirroring the "functional module"
//! style used by small research frameworks.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Element-wise activation applied between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::None => x,
            Activation::Relu => g.relu(x),
            Activation::LeakyRelu => g.leaky_relu(x, 0.01),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Tanh => g.tanh(x),
        }
    }
}

/// Affine layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized affine layer.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            Tensor::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.add(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `x (r×in) → r×out`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }
}

/// Multi-layer perceptron with a shared hidden activation and linear output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with `dims = [in, h1, ..., out]`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass; the activation is applied after every layer except the
    /// last.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, store, h);
            if i + 1 < self.layers.len() {
                h = self.activation.apply(g, h);
            }
        }
        h
    }
}

/// Learnable embedding table: `num × dim`, looked up by row index.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    num: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a uniformly initialized embedding table.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        num: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let scale = 1.0 / (dim as f32).sqrt();
        let table = store.add(name, Tensor::uniform(num, dim, -scale, scale, rng));
        Embedding { table, num, dim }
    }

    /// Number of rows (vocabulary size).
    pub fn num(&self) -> usize {
        self.num
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Id of the underlying table (used by hardware-embedding
    /// initialization, which copies rows between devices).
    pub fn table_id(&self) -> ParamId {
        self.table
    }

    /// Looks up `indices`, producing a `len×dim` matrix on the tape.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, indices: &[usize]) -> Var {
        let t = g.param(store, self.table);
        g.gather_rows(t, indices)
    }
}

/// Per-column LayerNorm affine parameters.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
}

impl LayerNorm {
    /// Registers gamma=1, beta=0 parameters of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::full(1, dim, 1.0));
        let beta = store.add(format!("{name}.beta"), Tensor::zeros(1, dim));
        LayerNorm { gamma, beta }
    }

    /// Applies row-wise LayerNorm.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.layer_norm_rows(x, gamma, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(5, 4));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (5, 3));
    }

    #[test]
    fn mlp_learns_linear_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[1, 8, 1], Activation::Relu, &mut rng);
        let cfg = crate::AdamConfig::default().with_lr(0.02);
        // fit y = 2x on a few points
        for _ in 0..400 {
            store.zero_grads();
            let mut g = Graph::new();
            let mut losses = Vec::new();
            for &xv in &[-1.0f32, -0.5, 0.0, 0.5, 1.0] {
                let x = g.constant(Tensor::scalar(xv));
                let y = mlp.forward(&mut g, &store, x);
                let t = g.constant(Tensor::scalar(2.0 * xv));
                let d = g.sub(y, t);
                let l = g.mul(d, d);
                losses.push(l);
            }
            let total = g.sum_vars(&losses);
            g.backward(total);
            g.write_grads(&mut store);
            store.adam_step(&cfg);
        }
        let mut g = Graph::new();
        let x = g.constant(Tensor::scalar(0.75));
        let y = mlp.forward(&mut g, &store, x);
        assert!(
            (g.value(y).item() - 1.5).abs() < 0.15,
            "got {}",
            g.value(y).item()
        );
    }

    #[test]
    fn embedding_lookup_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &store, &[3, 3, 7]);
        assert_eq!(g.value(out).shape(), (3, 4));
        assert_eq!(g.value(out).row(0), g.value(out).row(1));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let y = ln.forward(&mut g, &store, x);
        let row = g.value(y).row(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn activation_apply_matches_math() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::scalar(-2.0));
        let y = Activation::LeakyRelu.apply(&mut g, x);
        assert!((g.value(y).item() + 0.02).abs() < 1e-6);
        let z = Activation::None.apply(&mut g, x);
        assert_eq!(g.value(z).item(), -2.0);
    }
}
