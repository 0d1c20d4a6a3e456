//! Row classes: which rows of a tape node are equal by provenance.
//!
//! A class set records, for each row of a node, the first row whose value
//! is bit-identical to it *because both were computed the same way from
//! equal inputs* — never by comparing `f32` bits. Gathers are the source
//! (rows gathered from one row, or from one class of rows, are equal), and
//! each op derives its output's set from its inputs' sets (see
//! [`Graph`](crate::Graph)'s module docs for the rules). Class-aware ops
//! then compute one representative row per class and copy it to the rest.
//!
//! Nodes refer to sets by [`ClassId`], so an op whose rows follow its
//! input's rows keeps the input's set for free. A node whose rows are all
//! distinct has no set ([`NONE`]). Set vectors come from a pool that
//! [`RowClasses::clear`] refills, and classification is O(rows) integer
//! work on an open-addressing table that is kept across passes.

use crate::pool::Pool;

/// Id of a class set on the tape.
pub(crate) type ClassId = u32;

/// The "set" of a node whose rows are all distinct.
pub(crate) const NONE: ClassId = u32::MAX;

/// An empty table slot.
const EMPTY: u32 = u32::MAX;

/// Rows written by the tape's class-aware ops in the current pass: how many
/// they produced, and how many of those they computed rather than copied
/// from a representative row. [`Graph::clear`](crate::Graph::clear) resets
/// both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowCounts {
    /// Rows the class-aware ops produced.
    pub produced: usize,
    /// Rows they computed; the rest were copies.
    pub computed: usize,
}

struct ClassSet {
    /// Per row, the first row of its class.
    first: Vec<u32>,
    /// Number of classes: the rows a class-aware op computes.
    count: usize,
    /// Sets this one refines — rows equal here are equal there — or
    /// [`NONE`].
    parents: [ClassId; 2],
}

/// The class sets of one tape pass.
#[derive(Default)]
pub(crate) struct RowClasses {
    sets: Vec<ClassSet>,
    pool: Pool<u32>,
    /// Classification table, kept across passes.
    table: Vec<u32>,
    /// Per-row scratch for the block products: nonzero-column masks and
    /// key hashes, and first rows of blocks or block classes.
    masks: Vec<u64>,
    hashes: Vec<u64>,
    rows: Vec<u32>,
    counts: RowCounts,
}

impl RowClasses {
    /// Drops every set (their vectors go back to the pool) and resets the
    /// row counts.
    pub(crate) fn clear(&mut self) {
        let sets = self.sets.len();
        for set in self.sets.drain(..) {
            self.pool.give(set.first);
        }
        // Room for two passes' worth, like the value pool.
        self.pool.trim(2 * sets + 16);
        self.counts = RowCounts::default();
    }

    pub(crate) fn counts(&self) -> RowCounts {
        self.counts
    }

    /// Per row, the first row of its class; empty for [`NONE`].
    pub(crate) fn first(&self, id: ClassId) -> &[u32] {
        if id == NONE {
            &[]
        } else {
            &self.sets[id as usize].first
        }
    }

    /// Counts the `rows` of a class-aware op with classes `id`: all
    /// produced, one per class computed.
    pub(crate) fn record(&mut self, id: ClassId, rows: usize) {
        self.counts.produced += rows;
        self.counts.computed += if id == NONE {
            rows
        } else {
            self.sets[id as usize].count
        };
    }

    /// Files a classification as a set, or returns [`NONE`] (and the
    /// vector to the pool) when every row is its own class.
    fn add(&mut self, first: Vec<u32>, count: usize, parents: [ClassId; 2]) -> ClassId {
        if count == first.len() {
            self.pool.give(first);
            return NONE;
        }
        self.sets.push(ClassSet {
            first,
            count,
            parents,
        });
        (self.sets.len() - 1) as ClassId
    }

    /// Classes of a row gather: output row `i` copies row `indices[i]` of a
    /// `src_rows`-row node with classes `src`, so rows are equal when they
    /// gather one row or rows of one class.
    pub(crate) fn gather(&mut self, src: ClassId, src_rows: usize, indices: &[usize]) -> ClassId {
        let src = if src == NONE {
            &[][..]
        } else {
            &self.sets[src as usize].first[..]
        };
        // Keys are source rows, so the table is indexed directly.
        self.table.clear();
        self.table.resize(src_rows, EMPTY);
        let mut first = self.pool.take(indices.len());
        let mut count = 0;
        for (i, &ix) in indices.iter().enumerate() {
            let slot = &mut self.table[class_of(src, ix) as usize];
            if *slot == EMPTY {
                *slot = i as u32;
                count += 1;
            }
            first.push(*slot);
        }
        self.add(first, count, [NONE; 2])
    }

    /// Classes of an op whose row `i` depends on row `i` of two inputs
    /// with classes `x` and `y` (and on nothing row-dependent else): rows
    /// are equal when they are equal in both.
    pub(crate) fn pair(&mut self, x: ClassId, y: ClassId) -> ClassId {
        if x == NONE || y == NONE {
            return NONE;
        }
        if self.refines(x, y, 4) {
            return x;
        }
        if self.refines(y, x, 4) {
            return y;
        }
        let Self {
            sets, pool, table, ..
        } = self;
        let (fx, fy) = (&sets[x as usize].first, &sets[y as usize].first);
        if fx == fy {
            return x;
        }
        let (first, count) = classify(
            table,
            pool,
            fx.len(),
            |i| mix(u64::from(fx[i]), fy[i]),
            |j, i| fx[j] == fx[i] && fy[j] == fy[i],
        );
        self.add(first, count, [x, y])
    }

    /// Whether rows equal in `x` are equal in `y`: `x` is `y`, `y` has a
    /// single class, or `x` was derived from `y` (searched `depth` levels
    /// up; a miss only costs a pairing).
    fn refines(&self, x: ClassId, y: ClassId, depth: usize) -> bool {
        if x == y || self.sets[y as usize].count == 1 {
            return true;
        }
        depth > 0
            && self.sets[x as usize]
                .parents
                .iter()
                .any(|&p| p != NONE && self.refines(p, y, depth - 1))
    }

    /// Classes of `block_matmul(a, b, block)`, with `a_vals` the value of
    /// `a`: output row `r` sums `a[r][t]·b[r's block, t]` over the columns
    /// `t` where `a[r][t] != 0.0` (the terms the kernel does not skip), so
    /// rows are equal when their rows of `a` are and `b`'s rows at those
    /// columns are.
    pub(crate) fn block_matmul(
        &mut self,
        a: ClassId,
        b: ClassId,
        a_vals: &[f32],
        block: usize,
    ) -> ClassId {
        if a == NONE || block > 64 {
            return NONE;
        }
        let Self {
            sets,
            pool,
            table,
            masks,
            hashes,
            rows: bases,
            ..
        } = self;
        let fa = &sets[a as usize].first;
        let fb = if b == NONE {
            &[][..]
        } else {
            &sets[b as usize].first[..]
        };
        let b_class = |x: usize| class_of(fb, x);
        let rows = fa.len();
        // Equal rows of `a` have equal masks: build them for the first row
        // of each class only. One pass, without dividing by `block`, keys
        // each row and notes its block's first row.
        masks.clear();
        masks.resize(rows, 0);
        hashes.clear();
        bases.clear();
        let mut diagonal = true;
        for base in (0..rows).step_by(block) {
            for t0 in 0..block {
                let r = base + t0;
                let rep = fa[r] as usize;
                if rep == r {
                    let row = &a_vals[r * block..(r + 1) * block];
                    masks[r] = row
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| v != 0.0)
                        .fold(0, |m, (t, _)| m | 1 << t);
                }
                let mask = masks[rep];
                diagonal &= mask >> t0 & 1 == 1;
                hashes.push(bits(mask).fold(u64::from(fa[r]), |h, t| mix(h, b_class(base + t))));
                bases.push(base as u32);
            }
        }
        let (first, count) = classify(
            table,
            pool,
            rows,
            |r| hashes[r],
            |j, i| {
                let (bj, bi) = (bases[j] as usize, bases[i] as usize);
                fa[j] == fa[i]
                    && bits(masks[fa[i] as usize]).all(|t| b_class(bj + t) == b_class(bi + t))
            },
        );
        // With every diagonal term present, each row's key holds its own
        // row of `b`.
        self.add(first, count, [a, if diagonal { b } else { NONE }])
    }

    /// Classes of `block_matmul_nt(a, b, block)` over `rows` rows: output
    /// row `r` is `a[r]` times the transpose of `r`'s block of `b`, so rows
    /// are equal when their rows of `a` are and their blocks of `b` carry
    /// the same classes. When every block of `b` does, they are `a`'s.
    pub(crate) fn block_matmul_nt(
        &mut self,
        a: ClassId,
        b: ClassId,
        rows: usize,
        block: usize,
    ) -> ClassId {
        if a == NONE {
            return NONE;
        }
        let Self {
            sets,
            pool,
            table,
            rows: row_blocks,
            ..
        } = self;
        let blocks = rows / block;
        let (block_first, block_count) = if b == NONE {
            (Vec::new(), blocks)
        } else {
            let fb = &sets[b as usize].first;
            let of = |k: usize| &fb[k * block..(k + 1) * block];
            classify(
                table,
                pool,
                blocks,
                |k| of(k).iter().fold(0, |h, &c| mix(h, c)),
                |j, i| of(j) == of(i),
            )
        };
        row_blocks.clear();
        for k in 0..blocks {
            row_blocks.extend(std::iter::repeat_n(class_of(&block_first, k), block));
        }
        if block_first.capacity() > 0 {
            pool.give(block_first);
        }
        if block_count == 1 {
            return a;
        }
        let fa = &sets[a as usize].first;
        let (first, count) = classify(
            table,
            pool,
            rows,
            |r| mix(u64::from(fa[r]), row_blocks[r]),
            |j, i| fa[j] == fa[i] && row_blocks[j] == row_blocks[i],
        );
        self.add(first, count, [a, NONE])
    }
}

/// Row `r`'s class in a set's `first` vector: `r` itself when it is empty.
#[inline]
fn class_of(first: &[u32], r: usize) -> u32 {
    if first.is_empty() {
        r as u32
    } else {
        first[r]
    }
}

/// Folds one class id into a key hash.
#[inline]
fn mix(h: u64, x: u32) -> u64 {
    (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let t = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            t
        })
    })
}

/// Classes of `n` keyed items: entry `i` is the first `j` with
/// `same(j, i)`, where equal keys must hash equally. Returns the entries
/// and the number of classes; one pass over an open-addressing `table`.
fn classify(
    table: &mut Vec<u32>,
    pool: &mut Pool<u32>,
    n: usize,
    hash: impl Fn(usize) -> u64,
    same: impl Fn(usize, usize) -> bool,
) -> (Vec<u32>, usize) {
    let slots = (2 * n).next_power_of_two().max(2);
    let shift = 64 - slots.trailing_zeros();
    table.clear();
    table.resize(slots, EMPTY);
    let mut first = pool.take(n);
    let mut count = 0;
    for i in 0..n {
        let mut slot = (hash(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        let class = loop {
            let j = table[slot];
            if j == EMPTY {
                table[slot] = i as u32;
                count += 1;
                break i as u32;
            }
            if same(j as usize, i) {
                break j;
            }
            slot = (slot + 1) & (slots - 1);
        };
        first.push(class);
    }
    (first, count)
}

/// Calls `f(start, end)` on each maximal run of rows that are the first of
/// their class — all `rows` when `first` is empty.
pub(crate) fn for_each_rep_run(first: &[u32], rows: usize, mut f: impl FnMut(usize, usize)) {
    if first.is_empty() {
        if rows > 0 {
            f(0, rows);
        }
        return;
    }
    let mut start = None;
    for (i, &c) in first.iter().enumerate() {
        match (c as usize == i, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                f(s, i);
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        f(s, rows);
    }
}

/// [`for_each_rep_run`] with runs split at `block`-row boundaries:
/// `f(blk, start, end)`.
pub(crate) fn for_each_block_run(
    first: &[u32],
    rows: usize,
    block: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    for_each_rep_run(first, rows, |mut s, e| {
        while s < e {
            let blk = s / block;
            let end = e.min((blk + 1) * block);
            f(blk, s, end);
            s = end;
        }
    });
}

/// Copies every row of a `cols`-wide row-major buffer that is not the
/// first of its class from that first row, one copy per run of rows whose
/// first rows are consecutive too (a repeated block copies at once).
pub(crate) fn copy_class_rows(first: &[u32], data: &mut [f32], cols: usize) {
    let mut i = 0;
    while i < first.len() {
        let src = first[i] as usize;
        if src == i {
            i += 1;
            continue;
        }
        let mut len = 1;
        while i + len < first.len() && first[i + len] as usize == src + len {
            len += 1;
        }
        // Sources are first rows and targets are not, so every source
        // precedes row `i`.
        let (head, tail) = data.split_at_mut(i * cols);
        tail[..len * cols].copy_from_slice(&head[src * cols..(src + len) * cols]);
        i += len;
    }
}
