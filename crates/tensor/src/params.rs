//! Parameter storage and optimizers.
//!
//! Parameters outlive the per-batch [`Graph`](crate::Graph) tapes. The store
//! also supports whole-model snapshot/restore, which the HELP baseline's
//! first-order meta-learning loop uses for its inner/outer updates.

use crate::tensor::Tensor;

/// Identifier of a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

#[derive(Clone)]
struct Entry {
    name: String,
    value: Tensor,
    grad: Tensor,
    adam_m: Tensor,
    adam_v: Tensor,
}

/// Owns model parameters, their gradients, and Adam state.
#[derive(Default, Clone)]
pub struct ParamStore {
    entries: Vec<Entry>,
    step: u64,
}

impl core::fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ParamStore")
            .field("params", &self.entries.len())
            .field("scalars", &self.num_scalars())
            .field("step", &self.step)
            .finish()
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore {
            entries: Vec::new(),
            step: 0,
        }
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(Entry {
            name: name.into(),
            value,
            grad: Tensor::zeros(r, c),
            adam_m: Tensor::zeros(r, c),
            adam_v: Tensor::zeros(r, c),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Ids of all registered parameters, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar element count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable value (used for hardware-embedding initialization, which
    /// copies rows between embedding tables outside of training).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutable gradient (graphs accumulate into this).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.zero_();
        }
    }

    /// Clips gradients to a maximum global L2 norm. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let total: f32 = self
            .entries
            .iter()
            .map(|e| e.grad.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt();
        if total > max_norm && total > 0.0 {
            let scale = max_norm / total;
            for e in &mut self.entries {
                for g in e.grad.data_mut() {
                    *g *= scale;
                }
            }
        }
        total
    }

    /// Snapshot of all parameter values (for meta-learning and early
    /// stopping).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.entries.iter().map(|e| e.value.clone()).collect()
    }

    /// Restores values from a snapshot taken on the same store layout.
    ///
    /// # Panics
    /// Panics if the snapshot length or any shape differs.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(
            snapshot.len(),
            self.entries.len(),
            "snapshot layout mismatch"
        );
        for (e, s) in self.entries.iter_mut().zip(snapshot) {
            assert_eq!(
                e.value.shape(),
                s.shape(),
                "snapshot shape mismatch for {}",
                e.name
            );
            e.value = s.clone();
        }
    }

    /// Moves each parameter toward `target` by `rate` (Reptile outer update:
    /// `theta += rate * (target - theta)`).
    pub fn lerp_toward(&mut self, target: &[Tensor], rate: f32) {
        assert_eq!(target.len(), self.entries.len(), "target layout mismatch");
        for (e, t) in self.entries.iter_mut().zip(target) {
            for (v, &tv) in e.value.data_mut().iter_mut().zip(t.data()) {
                *v += rate * (tv - *v);
            }
        }
    }

    /// Resets the Adam moment estimates and step counter (the paper
    /// re-initializes the learning schedule when fine-tuning on the target
    /// device).
    pub fn reset_optimizer_state(&mut self) {
        self.step = 0;
        for e in &mut self.entries {
            e.adam_m.zero_();
            e.adam_v.zero_();
        }
    }

    /// One AdamW step over all parameters using accumulated gradients.
    pub fn adam_step(&mut self, cfg: &AdamConfig) {
        self.step += 1;
        let t = self.step as f64;
        let bc1 = (1.0 - (cfg.beta1 as f64).powf(t)) as f32;
        let bc2 = (1.0 - (cfg.beta2 as f64).powf(t)) as f32;
        for e in &mut self.entries {
            let slots = e
                .value
                .data_mut()
                .iter_mut()
                .zip(e.adam_m.data_mut())
                .zip(e.adam_v.data_mut())
                .zip(e.grad.data());
            for (((w, m), v), &g) in slots {
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                let update = cfg.lr * (mhat / (vhat.sqrt() + cfg.eps) + cfg.weight_decay * *w);
                *w -= update;
            }
        }
    }

    /// One plain SGD step (used by the HELP baseline's inner loop).
    pub fn sgd_step(&mut self, lr: f32) {
        for e in &mut self.entries {
            for i in 0..e.value.len() {
                let g = e.grad.data()[i];
                e.value.data_mut()[i] -= lr * g;
            }
        }
    }

    /// True when any parameter contains NaN/inf.
    pub fn has_non_finite(&self) -> bool {
        self.entries.iter().any(|e| e.value.has_non_finite())
    }
}

/// AdamW hyperparameters (defaults follow the paper's Table 20).
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-5,
        }
    }
}

impl AdamConfig {
    /// Same config with a different learning rate.
    pub fn with_lr(self, lr: f32) -> Self {
        AdamConfig { lr, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (w - 3)^2 from w = 0
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let cfg = AdamConfig {
            lr: 0.1,
            ..AdamConfig::default()
        }
        .with_lr(0.1);
        for _ in 0..300 {
            store.zero_grads();
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let t = g.constant(Tensor::scalar(3.0));
            let d = g.sub(wv, t);
            let loss = g.mul(d, d);
            g.backward(loss);
            g.write_grads(&mut store);
            store.adam_step(&cfg);
        }
        assert!((store.value(w).item() - 3.0).abs() < 0.05);
    }

    /// The indexed AdamW loop that `adam_step` replaced, kept as its bit
    /// oracle.
    fn adam_step_indexed(store: &mut ParamStore, cfg: &AdamConfig) {
        store.step += 1;
        let t = store.step as f64;
        let bc1 = 1.0 - (cfg.beta1 as f64).powf(t);
        let bc2 = 1.0 - (cfg.beta2 as f64).powf(t);
        for e in &mut store.entries {
            for i in 0..e.value.len() {
                let g = e.grad.data()[i];
                let m = cfg.beta1 * e.adam_m.data()[i] + (1.0 - cfg.beta1) * g;
                let v = cfg.beta2 * e.adam_v.data()[i] + (1.0 - cfg.beta2) * g * g;
                e.adam_m.data_mut()[i] = m;
                e.adam_v.data_mut()[i] = v;
                let mhat = m / bc1 as f32;
                let vhat = v / bc2 as f32;
                let w = e.value.data()[i];
                let update = cfg.lr * (mhat / (vhat.sqrt() + cfg.eps) + cfg.weight_decay * w);
                e.value.data_mut()[i] = w - update;
            }
        }
    }

    fn state_bits(store: &ParamStore) -> Vec<u32> {
        store
            .entries
            .iter()
            .flat_map(|e| [&e.value, &e.adam_m, &e.adam_v])
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn adam_step_matches_the_indexed_loop_bitwise() {
        let ramp = |len: usize, seed: f32| -> Vec<f32> {
            (0..len)
                .map(|i| ((i as f32 * 0.61 + seed).sin() * 2.0) - 0.5)
                .collect()
        };
        let mut fast = ParamStore::new();
        let w = fast.add("w", Tensor::from_vec(3, 5, ramp(15, 0.2)));
        let b = fast.add("b", Tensor::from_vec(1, 7, ramp(7, 1.3)));
        let mut slow = fast.clone();
        let cfg = AdamConfig::default().with_lr(0.05);
        for step in 0..5 {
            for store in [&mut fast, &mut slow] {
                for (id, len) in [(w, 15), (b, 7)] {
                    let mut g = ramp(len, step as f32 * 0.9);
                    g[step % len] = 0.0;
                    store.grad_mut(id).data_mut().copy_from_slice(&g);
                }
            }
            fast.adam_step(&cfg);
            adam_step_indexed(&mut slow, &cfg);
            assert_eq!(state_bits(&fast), state_bits(&slow), "step {step}");
        }
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(1.0));
        let snap = store.snapshot();
        store.value_mut(a).set(0, 0, 9.0);
        store.restore(&snap);
        assert_eq!(store.value(a).item(), 1.0);
    }

    #[test]
    fn lerp_toward_moves_halfway() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(0.0));
        let target = vec![Tensor::scalar(10.0)];
        store.lerp_toward(&target, 0.5);
        assert_eq!(store.value(a).item(), 5.0);
    }

    #[test]
    fn clip_grad_norm_caps_large_grads() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(0.0));
        store.grad_mut(a).set(0, 0, 100.0);
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 100.0).abs() < 1e-4);
        assert!((store.grad(a).item() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn reset_optimizer_state_zeroes_moments() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        store.grad_mut(w).set(0, 0, 1.0);
        store.adam_step(&AdamConfig::default());
        store.reset_optimizer_state();
        // After reset, a step with zero grad should not move the weight
        // (other than weight decay on near-zero value).
        let before = store.value(w).item();
        store.zero_grads();
        store.adam_step(&AdamConfig {
            weight_decay: 0.0,
            ..AdamConfig::default()
        });
        assert!((store.value(w).item() - before).abs() < 1e-7);
    }

    #[test]
    fn sgd_step_descends() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(2.0));
        store.grad_mut(w).set(0, 0, 1.0);
        store.sgd_step(0.5);
        assert_eq!(store.value(w).item(), 1.5);
    }
}
