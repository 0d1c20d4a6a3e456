//! `nasflat-tensor`: a minimal tape-based autograd engine.
//!
//! This crate is the training substrate for the NASFLAT reproduction — a
//! from-scratch replacement for the PyTorch stack the paper uses. It provides:
//!
//! - [`Tensor`]: a dense row-major `f32` matrix whose hot loops run on the
//!   cache-blocked, 8-wide unrolled [`kernels`] (bit-identical to the scalar
//!   reference loops — see the module docs for the exactness contract);
//! - [`Graph`]/[`Var`]: a reverse-mode autodiff tape whose op set covers GNN
//!   predictors (matmul, masked softmax for graph attention, LayerNorm,
//!   embedding gather, broadcasts, reductions); [`Graph::clear`] resets the
//!   tape while retaining its node and buffer arenas, so one tape can be
//!   reused across thousands of forward passes without reallocating;
//! - block ops over B blocks stacked into one tall matrix
//!   ([`Graph::block_matmul`] and [`Graph::block_matmul_nt`] over
//!   equal-size blocks, [`Graph::block_mean_rows`] over any sizes): B
//!   queries share one tape while staying bit-identical to B separate
//!   passes, because each block runs the per-query kernel call with its
//!   fixed accumulation order. A lone query is one block;
//! - [`ParamStore`]/[`AdamConfig`]: parameter storage with AdamW, SGD,
//!   gradient clipping, and snapshot/restore for meta-learning baselines;
//! - layers ([`Linear`], [`Mlp`], [`Embedding`], [`LayerNorm`]) and losses
//!   ([`mse_loss`], [`pairwise_hinge_loss`]).
//!
//! # Example
//! ```
//! use nasflat_tensor::{Graph, ParamStore, AdamConfig, Tensor};
//!
//! // Fit w to minimize (w*2 - 6)^2  =>  w -> 3.
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::scalar(0.0));
//! let cfg = AdamConfig::default().with_lr(0.1);
//! for _ in 0..200 {
//!     store.zero_grads();
//!     let mut g = Graph::new();
//!     let wv = g.param(&store, w);
//!     let two = g.constant(Tensor::scalar(2.0));
//!     let six = g.constant(Tensor::scalar(6.0));
//!     let y = g.mul(wv, two);
//!     let d = g.sub(y, six);
//!     let loss = g.mul(d, d);
//!     g.backward(loss);
//!     g.write_grads(&mut store);
//!     store.adam_step(&cfg);
//! }
//! assert!((store.value(w).item() - 3.0).abs() < 0.1);
//! ```

#![warn(missing_docs)]

mod classes;
mod graph;
pub mod kernels;
mod layers;
mod loss;
mod params;
mod pool;
mod serialize;
mod tensor;

pub use classes::RowCounts;
pub use graph::{Graph, Var};
pub use layers::{Activation, Embedding, LayerNorm, Linear, Mlp};
pub use loss::{mse_loss, mse_loss_stacked, pairwise_hinge_loss, pairwise_hinge_loss_stacked};
pub use params::{AdamConfig, ParamId, ParamStore};
pub use serialize::{ByteReader, ByteWriter, LoadError, WireError};
pub use tensor::Tensor;
