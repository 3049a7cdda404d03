//! The three workloads and their deterministic request streams.

use crate::rng::{derive, Rng};
use hcl_graph::VertexId;

/// Every `BATCH_EVERY`-th read is a `BATCH`; the rest are `QUERY` lines.
pub const BATCH_EVERY: u64 = 16;
/// Pairs per `BATCH`.
pub const BATCH_PAIRS: usize = 64;
/// Distinct pairs the Zipf workloads draw from: 16× the production
/// default cache (65,536 entries), so the hot head fits and the tail does
/// not.
pub const ZIPF_POOL: usize = 1 << 20;
/// Zipf exponent: the top 65,536 pool pairs take about 80% of draws.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// `zipf-routed-packed` sends one `RELOAD <dir>` every this many reads.
pub const RELOAD_EVERY: u64 = 24_576;
/// `update-mix` sends one `UPDATE` every this many reads.
pub const UPDATE_EVERY: u64 = 8_192;
/// Zipf rank of the first edit-set pair in `update-mix`: each edit's own
/// endpoints are asked for often (≈ 0.6% of draws each), so an answer
/// that missed an acknowledged edit, or a cache entry the retag should
/// have dropped, shows up as a wrong answer.
const EDIT_PAIR_RANK: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    UniformDirect,
    ZipfRoutedPacked,
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::UniformDirect, Workload::ZipfRoutedPacked, Workload::UpdateMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformDirect => "uniform-direct",
            Workload::ZipfRoutedPacked => "zipf-routed-packed",
            Workload::UpdateMix => "update-mix",
        }
    }

    pub fn routed(self) -> bool {
        self == Workload::ZipfRoutedPacked
    }
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub enum Op {
    Query((VertexId, VertexId)),
    Batch(Vec<(VertexId, VertexId)>),
    /// `RELOAD <deployment dir>` through the router.
    Reload,
    /// `UPDATE ADD|DEL` of entry `edit` of the instance's edit set.
    Update {
        add: bool,
        edit: usize,
    },
}

impl Op {
    /// The distance pairs a read asks for (empty for lifecycle requests).
    pub fn pairs(&self) -> &[(VertexId, VertexId)] {
        match self {
            Op::Query(pair) => std::slice::from_ref(pair),
            Op::Batch(pairs) => pairs,
            Op::Reload | Op::Update { .. } => &[],
        }
    }

    pub fn is_read(&self) -> bool {
        matches!(self, Op::Query(_) | Op::Batch(_))
    }
}

/// Zipf popularity over a fixed pool of uniformly drawn pairs: rank `r`
/// (0-based) is drawn with probability proportional to `1 / (r + 1)^s`.
struct ZipfPool {
    pairs: Vec<(VertexId, VertexId)>,
    cdf: Vec<f64>,
}

impl ZipfPool {
    /// A pool of uniform pairs, with `pinned` placed from rank
    /// `EDIT_PAIR_RANK` on.
    fn new(n: usize, rng: &mut Rng, pinned: &[(VertexId, VertexId)]) -> ZipfPool {
        let mut pairs: Vec<_> = (0..ZIPF_POOL).map(|_| uniform_pair(n, rng)).collect();
        pairs[EDIT_PAIR_RANK..EDIT_PAIR_RANK + pinned.len()].copy_from_slice(pinned);
        let mut cdf = Vec::with_capacity(ZIPF_POOL);
        let mut acc = 0.0;
        for r in 0..ZIPF_POOL {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfPool { pairs, cdf }
    }

    fn draw(&self, rng: &mut Rng) -> (VertexId, VertexId) {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(ZIPF_POOL - 1);
        self.pairs[rank]
    }
}

fn uniform_pair(n: usize, rng: &mut Rng) -> (VertexId, VertexId) {
    (rng.below(n as u64) as VertexId, rng.below(n as u64) as VertexId)
}

/// The request stream of one workload: a pure function of the workload,
/// the vertex count and the seed.
pub struct Stream {
    workload: Workload,
    n: usize,
    rng: Rng,
    zipf: Option<ZipfPool>,
    reads: u64,
    reads_since_lifecycle: u64,
    /// Position in the `ADD e0, DEL e0, ADD e1, …` edit cycle.
    edit_step: usize,
    edits: usize,
}

impl Stream {
    /// `edits` is the instance's edit set, cycled through by `update-mix`.
    pub fn new(workload: Workload, n: usize, edits: &[(VertexId, VertexId)], seed: u64) -> Stream {
        let mut rng = Rng::new(derive(seed, 10));
        let pinned = if workload == Workload::UpdateMix { edits } else { &[] };
        let zipf =
            (workload != Workload::UniformDirect).then(|| ZipfPool::new(n, &mut rng, pinned));
        Stream {
            workload,
            n,
            rng,
            zipf,
            reads: 0,
            reads_since_lifecycle: 0,
            edit_step: 0,
            edits: edits.len(),
        }
    }

    fn pair(&mut self) -> (VertexId, VertexId) {
        match &self.zipf {
            Some(pool) => pool.draw(&mut self.rng),
            None => uniform_pair(self.n, &mut self.rng),
        }
    }

    fn lifecycle(&mut self) -> Option<Op> {
        let every = match self.workload {
            Workload::UniformDirect => return None,
            Workload::ZipfRoutedPacked => RELOAD_EVERY,
            Workload::UpdateMix => UPDATE_EVERY,
        };
        if self.reads_since_lifecycle < every {
            return None;
        }
        self.reads_since_lifecycle = 0;
        Some(match self.workload {
            Workload::ZipfRoutedPacked => Op::Reload,
            _ => {
                let step = self.edit_step;
                self.edit_step = (step + 1) % (2 * self.edits);
                Op::Update { add: step.is_multiple_of(2), edit: step / 2 }
            }
        })
    }

    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.lifecycle() {
            return op;
        }
        self.reads += 1;
        self.reads_since_lifecycle += 1;
        if self.reads.is_multiple_of(BATCH_EVERY) {
            Op::Batch((0..BATCH_PAIRS).map(|_| self.pair()).collect())
        } else {
            Op::Query(self.pair())
        }
    }
}
