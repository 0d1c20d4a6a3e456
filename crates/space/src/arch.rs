//! Unified architecture representation across both search spaces.

use rand::Rng;

use crate::cost::CostProfile;
use crate::fbnet;
use crate::graph::{self, ArchGraph};
use crate::nb201;

/// Which NAS benchmark space an architecture belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// NASBench-201 micro cell space (5^6 = 15 625 architectures).
    Nb201,
    /// FBNet macro space (9 blocks × 22 positions).
    Fbnet,
}

impl Space {
    /// Number of searchable choices per slot (5 edge ops / 9 blocks).
    pub fn num_ops(self) -> usize {
        match self {
            Space::Nb201 => nb201::NB201_OPS.len(),
            Space::Fbnet => fbnet::FBNET_BLOCKS.len(),
        }
    }

    /// Genotype length (6 edges / 22 positions).
    pub fn genotype_len(self) -> usize {
        match self {
            Space::Nb201 => nb201::NB201_EDGES.len(),
            Space::Fbnet => fbnet::FBNET_POSITIONS,
        }
    }

    /// Size of the GNN operation vocabulary: the space's ops plus the
    /// special `INPUT` and `OUTPUT` tokens.
    pub fn vocab_size(self) -> usize {
        self.num_ops() + 2
    }

    /// Number of nodes in the line-graph form ([`ArchGraph`]).
    pub fn graph_nodes(self) -> usize {
        self.genotype_len() + 2
    }

    /// Total number of unique architectures (`None` for FBNet, which is
    /// astronomically large and handled through a sampled pool).
    pub fn num_archs(self) -> Option<u64> {
        match self {
            Space::Nb201 => Some(nb201::NB201_NUM_ARCHS),
            Space::Fbnet => None,
        }
    }

    /// The `n×n` propagation matrix ([`ArchGraph::propagation_matrix`])
    /// that every architecture of this space shares: a space fixes its
    /// topology (NB201's cell edges, FBNet's chain) and a genotype only
    /// picks the op on each node, so this equals
    /// `arch.to_graph().propagation_matrix()` for every `arch` here.
    pub fn propagation_matrix(self) -> Vec<f32> {
        Arch::new(self, vec![0; self.genotype_len()])
            .to_graph()
            .propagation_matrix()
    }

    /// Short display name used in table headers.
    pub fn short_name(self) -> &'static str {
        match self {
            Space::Nb201 => "NB201",
            Space::Fbnet => "FBNet",
        }
    }

    /// Stable single-byte identifier used by every on-disk and on-wire
    /// format (the `NFP1` predictor envelope, the `NFB1` bundle, the serving
    /// layer's ingress frames). Codes are append-only: existing values never
    /// change meaning.
    pub fn wire_code(self) -> u8 {
        match self {
            Space::Nb201 => 0,
            Space::Fbnet => 1,
        }
    }

    /// Inverse of [`Space::wire_code`]; `None` for unknown codes (a newer
    /// format, or corruption).
    pub fn from_wire_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Space::Nb201,
            1 => Space::Fbnet,
            _ => return None,
        })
    }
}

/// A single architecture: a genotype of op choices in one [`Space`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Arch {
    space: Space,
    genotype: Vec<u8>,
}

impl Arch {
    /// Builds an architecture from a genotype.
    ///
    /// # Panics
    /// Panics if the genotype length or any op id is out of range for the
    /// space.
    pub fn new(space: Space, genotype: Vec<u8>) -> Self {
        Arch::try_new(space, genotype).expect("genotype length or op id out of range")
    }

    /// Fallible [`Arch::new`] for untrusted genotypes (file formats, the
    /// serving wire protocol): `None` when the length or any op id is out
    /// of range for the space, instead of panicking.
    pub fn try_new(space: Space, genotype: Vec<u8>) -> Option<Self> {
        let num_ops = space.num_ops() as u8;
        if genotype.len() != space.genotype_len() || genotype.iter().any(|&g| g >= num_ops) {
            return None;
        }
        Some(Arch { space, genotype })
    }

    /// Decodes the NB201 architecture with the given index (base-5 digits of
    /// `index` are the edge ops).
    ///
    /// # Panics
    /// Panics if `index >= 15625`.
    pub fn nb201_from_index(index: u64) -> Self {
        assert!(index < nb201::NB201_NUM_ARCHS, "NB201 index out of range");
        let mut genotype = vec![0u8; nb201::NB201_EDGES.len()];
        let mut rest = index;
        for slot in genotype.iter_mut() {
            *slot = (rest % 5) as u8;
            rest /= 5;
        }
        Arch {
            space: Space::Nb201,
            genotype,
        }
    }

    /// The NB201 index of this architecture (inverse of
    /// [`Arch::nb201_from_index`]).
    ///
    /// # Panics
    /// Panics when called on an FBNet architecture.
    pub fn nb201_index(&self) -> u64 {
        assert_eq!(self.space, Space::Nb201, "nb201_index on non-NB201 arch");
        self.genotype
            .iter()
            .rev()
            .fold(0u64, |acc, &g| acc * 5 + g as u64)
    }

    /// Uniform random architecture.
    pub fn random<R: Rng>(space: Space, rng: &mut R) -> Self {
        let genotype = (0..space.genotype_len())
            .map(|_| rng.random_range(0..space.num_ops()) as u8)
            .collect();
        Arch { space, genotype }
    }

    /// The space this architecture belongs to.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Op choice per edge/position.
    pub fn genotype(&self) -> &[u8] {
        &self.genotype
    }

    /// Operation id per node of [`Arch::to_graph`], without building the
    /// graph: `INPUT`, the genotype's ops, `OUTPUT`.
    pub fn node_ops(&self) -> impl Iterator<Item = usize> + '_ {
        graph::node_ops(&self.genotype)
    }

    /// Converts to the operation-on-nodes DAG used by GNN predictors.
    pub fn to_graph(&self) -> ArchGraph {
        match self.space {
            Space::Nb201 => nb201::to_graph(&self.genotype),
            Space::Fbnet => fbnet::to_graph(&self.genotype),
        }
    }

    /// Analytic FLOPs / parameter / activation-memory profile.
    pub fn cost_profile(&self) -> CostProfile {
        match self.space {
            Space::Nb201 => nb201::cost_profile(&self.genotype),
            Space::Fbnet => fbnet::cost_profile(&self.genotype),
        }
    }

    /// The flattened adjacency + one-hot-operation encoding ("AdjOp",
    /// White et al. 2020) used as the predictor's base representation and by
    /// the Arch2Vec autoencoder.
    pub fn adjop_encoding(&self) -> Vec<f32> {
        let g = self.to_graph();
        let n = g.num_nodes();
        let vocab = self.space.vocab_size();
        let mut enc = Vec::with_capacity(n * n + n * vocab);
        for i in 0..n {
            for j in 0..n {
                enc.push(g.adj(i, j));
            }
        }
        for i in 0..n {
            let mut onehot = vec![0.0f32; vocab];
            onehot[g.ops()[i]] = 1.0;
            enc.extend_from_slice(&onehot);
        }
        enc
    }

    /// Iterator over every NB201 architecture in index order.
    pub fn nb201_enumerate() -> impl Iterator<Item = Arch> {
        (0..nb201::NB201_NUM_ARCHS).map(Arch::nb201_from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nb201_index_round_trip() {
        for idx in [0u64, 1, 5, 624, 15624, 9431] {
            let a = Arch::nb201_from_index(idx);
            assert_eq!(a.nb201_index(), idx);
        }
    }

    #[test]
    #[should_panic(expected = "NB201 index out of range")]
    fn nb201_index_bounds() {
        let _ = Arch::nb201_from_index(15625);
    }

    #[test]
    fn random_archs_are_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for space in [Space::Nb201, Space::Fbnet] {
            let a = Arch::random(space, &mut rng);
            assert_eq!(a.genotype().len(), space.genotype_len());
            assert!(a.genotype().iter().all(|&g| (g as usize) < space.num_ops()));
        }
    }

    #[test]
    fn vocab_and_node_counts() {
        assert_eq!(Space::Nb201.vocab_size(), 7);
        assert_eq!(Space::Fbnet.vocab_size(), 11);
        assert_eq!(Space::Nb201.graph_nodes(), 8);
        assert_eq!(Space::Fbnet.graph_nodes(), 24);
    }

    #[test]
    fn adjop_encoding_length() {
        let a = Arch::nb201_from_index(0);
        let n = 8;
        assert_eq!(a.adjop_encoding().len(), n * n + n * 7);
    }

    #[test]
    fn enumerate_covers_space() {
        assert_eq!(Arch::nb201_enumerate().count() as u64, NB201_NUM_ARCHS);
    }

    use crate::nb201::NB201_NUM_ARCHS;
}
