//! The tape's buffer pool: recycled buffers filed by capacity, handed out
//! best-fit.

use std::collections::BTreeMap;

use crate::tensor::Tensor;

/// Recycled buffers, filed by capacity: [`Graph::clear`](crate::Graph::clear)
/// refills it, ops, gradients and backward temporaries draw from it, and
/// temporaries go back to it. The tape keeps one for `f32` values and one
/// for `u32` row classes.
pub(crate) struct Pool<T> {
    /// Free buffers by capacity; each stack has the most recently freed
    /// buffer on top.
    pub(crate) stacks: BTreeMap<usize, Vec<Vec<T>>>,
    /// Free buffers across all capacities.
    pub(crate) len: usize,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            stacks: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<T> Pool<T> {
    /// An empty buffer with capacity for `len` values: best fit — the most
    /// recently freed buffer of the smallest capacity that fits — else a
    /// new one.
    pub(crate) fn take(&mut self, len: usize) -> Vec<T> {
        let hit = self
            .stacks
            .range_mut(len..)
            .find_map(|(_, stack)| stack.pop());
        match hit {
            Some(mut buf) => {
                self.len -= 1;
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// Files a buffer under its capacity.
    pub(crate) fn give(&mut self, buf: Vec<T>) {
        self.stacks.entry(buf.capacity()).or_default().push(buf);
        self.len += 1;
    }

    /// Drops buffers, largest capacity first, until at most `max` remain.
    pub(crate) fn trim(&mut self, max: usize) {
        while self.len > max {
            let Some(mut class) = self.stacks.last_entry() else {
                break;
            };
            let stack = class.get_mut();
            let cut = (self.len - max).min(stack.len());
            stack.truncate(stack.len() - cut);
            self.len -= cut;
            if stack.is_empty() {
                class.remove();
            }
        }
    }
}

impl Pool<f32> {
    /// A pooled zeros tensor.
    pub(crate) fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut buf = self.take(rows * cols);
        buf.resize(rows * cols, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// A pooled `rows×cols` tensor holding `values` in row-major order.
    pub(crate) fn filled(
        &mut self,
        rows: usize,
        cols: usize,
        values: impl IntoIterator<Item = f32>,
    ) -> Tensor {
        let mut buf = self.take(rows * cols);
        buf.extend(values);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Returns a tensor's buffer to the pool.
    pub(crate) fn put(&mut self, t: Tensor) {
        self.give(t.into_vec());
    }
}
