//! Seeded inputs for the four workloads.
//!
//! Every workload is a fixed list of (family, size) slots. The seed
//! draws names, job order and run seeds, never the amount of work, so
//! the figures of runs on different seeds compare (see [`suite`]).

use nck_core::{Program, Var};
use nck_problems::{
    CliqueCover, ExactCover, Graph, KSat, Literal, MapColoring, MaxCut, MinSetCover, MinVertexCover,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads, one per invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh plan + annealer per program: the CLI / Fig. 7 shape.
    AnnealCold,
    /// Warmed plans, 1000-read durable jobs: the Fig. 7/8 study shape.
    AnnealSweep,
    /// Fresh plan + classical branch and bound: the Fig. 12 shape.
    ExactClassical,
    /// Fresh plan + QAOA on the heavy-hex device: the Fig. 8–11 shape.
    QaoaGate,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::AnnealCold, Workload::AnnealSweep, Workload::ExactClassical, Workload::QaoaGate];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnnealCold => "anneal_cold",
            Workload::AnnealSweep => "anneal_sweep",
            Workload::ExactClassical => "exact_classical",
            Workload::QaoaGate => "qaoa_gate",
        }
    }

    /// Nominal length of one timed round on the reference box (2-core
    /// x86-64 VM), in ms; `--seconds` buys `seconds / round` rounds.
    pub fn round_ms(self) -> u64 {
        match self {
            Workload::AnnealCold => 2200,
            Workload::AnnealSweep => 3000,
            Workload::ExactClassical => 1200,
            Workload::QaoaGate => 1600,
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How an instance's optimum is established without the branch and
/// bound the pipeline itself uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Exhaustive enumeration (`nck_classical::solve_brute`).
    Brute,
    /// Minimum vertex cover of `circulant(n, 4)` has `n − ⌊n/3⌋`
    /// vertices, so `⌊n/3⌋` exclusion preferences hold.
    CirculantCover { n: usize },
    /// Chain dynamic program for vertex cover of `clique_chain(k)`.
    ChainCover { k: usize },
    /// Chain dynamic program for max cut of `clique_chain(k)`.
    ChainCut { k: usize },
}

/// One program of a workload.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Family and size, e.g. `vertex-cover G(10,20)`.
    pub label: String,
    /// The program the pipeline receives.
    pub program: Program,
    /// How its optimum is checked.
    pub reference: Reference,
}

/// One solve: an instance and the run seed handed to the backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Index into [`Suite::instances`].
    pub instance: usize,
    /// Backend run seed.
    pub seed: u64,
}

/// A workload's generated inputs.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Distinct programs.
    pub instances: Vec<Instance>,
    /// Solves, in closed-loop order.
    pub jobs: Vec<Job>,
}

/// Job seeds per annealer-sweep program.
pub const SWEEP_SEEDS: usize = 8;

/// A generator for `seed`, decorrelated per `stream`.
fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// A uniformly random permutation of `0..n`.
fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(rng);
    p
}

/// `g` with vertex `v` renamed `perm[v]`.
fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    Graph::new(g.num_vertices(), g.edges().iter().map(|&(a, b)| (perm[a], perm[b])))
}

/// A connected random graph: a random spanning tree plus random extra
/// edges up to `m`.
fn random_connected(rng: &mut StdRng, n: usize, m: usize) -> Graph {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (rng.random_range(0..v), v)).collect();
    while edges.len() < m {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        let e = (a.min(b), a.max(b));
        if a != b && !edges.contains(&e) {
            edges.push(e);
        }
    }
    Graph::new(n, edges)
}

/// Two cliques of `a` and `n − a` vertices plus `cross` random edges
/// between them: always coverable by two cliques.
fn planted_two_cliques(rng: &mut StdRng, n: usize, a: usize, cross: usize) -> Graph {
    let mut edges = Vec::new();
    for (lo, hi) in [(0, a), (a, n)] {
        for u in lo..hi {
            for v in u + 1..hi {
                edges.push((u, v));
            }
        }
    }
    let mut added = 0;
    while added < cross {
        let (u, v) = (rng.random_range(0..a), a + rng.random_range(0..n - a));
        if !edges.contains(&(u, v)) {
            edges.push((u, v));
            added += 1;
        }
    }
    Graph::new(n, edges)
}

/// A random graph with a planted proper 3-colouring: edges only join
/// vertices of different hidden colours.
fn planted_three_colorable(rng: &mut StdRng, n: usize, m: usize) -> Graph {
    let color: Vec<usize> = (0..n).map(|v| v % 3).collect();
    let mut edges = Vec::new();
    while edges.len() < m {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        let e = (a.min(b), a.max(b));
        if color[a] != color[b] && !edges.contains(&e) {
            edges.push(e);
        }
    }
    Graph::new(n, edges)
}

/// Random 3-SAT with `m` clauses over `n` variables, every clause
/// satisfied by a hidden assignment.
fn planted_3sat(rng: &mut StdRng, n: usize, m: usize) -> KSat {
    let hidden: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
    let mut clauses = Vec::with_capacity(m);
    while clauses.len() < m {
        let mut vars = Vec::with_capacity(3);
        while vars.len() < 3 {
            let v = rng.random_range(0..n);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let clause: Vec<Literal> = vars
            .iter()
            .map(|&v| if rng.random::<bool>() { Literal::pos(v) } else { Literal::neg(v) })
            .collect();
        if clause.iter().any(|l| l.eval(&hidden)) {
            clauses.push(clause);
        }
    }
    KSat::new(n, clauses)
}

/// A random exact cover (planted partition plus `extra` subsets) in
/// which no element lies in more than three subsets, so every coverage
/// constraint has a shape the compiler solves in bounded time.
fn exact_cover(rng: &mut StdRng, n: usize, extra: usize) -> ExactCover {
    loop {
        let ec = ExactCover::random(n, extra, rng.random::<u64>());
        let most = (0..n)
            .map(|e| ec.subsets().iter().filter(|s| s.contains(&e)).count())
            .max()
            .unwrap_or(0);
        if most <= 3 {
            return ec;
        }
    }
}

fn brute(label: String, program: Program) -> Instance {
    Instance { label, program, reference: Reference::Brute }
}

/// `circulant(n, 4)` under a random rotation and reflection — an
/// automorphism, so every seed poses the same search in new names.
fn circulant_cover(rng: &mut StdRng, n: usize) -> Instance {
    let (shift, flip) = (rng.random_range(0..n), rng.random::<bool>());
    let perm: Vec<usize> =
        (0..n).map(|v| if flip { (n - v + shift) % n } else { (v + shift) % n }).collect();
    let g = relabel(&Graph::circulant(n, 4), &perm);
    Instance {
        label: format!("vertex-cover circulant({n},4)"),
        program: MinVertexCover::new(g).program(),
        reference: Reference::CirculantCover { n },
    }
}

/// `clique_chain(k)`, read forwards or backwards (the chain's
/// reversal automorphism).
fn chain_graph(rng: &mut StdRng, k: usize) -> Graph {
    let g = Graph::clique_chain(k);
    if rng.random::<bool>() {
        let n = g.num_vertices();
        let perm: Vec<usize> = (0..n).map(|v| n - 1 - v).collect();
        relabel(&g, &perm)
    } else {
        g
    }
}

/// Small programs whose embeddings take about the same time on every
/// seed (trees, unicyclic graphs, exact covers, small clique covers)
/// fill the ranks up to past p75; the SMT-compiled set covers and the
/// 3-SAT program sit above them.
fn anneal_cold(rng: &mut StdRng) -> Vec<Instance> {
    let mut out = Vec::new();
    for n in [5, 6, 7, 8, 9, 11, 12, 13] {
        let ec = exact_cover(rng, n, n / 2);
        out.push(brute(format!("exact-cover n={n}"), ec.program()));
    }
    for n in [7, 7, 8, 8] {
        let m = 3 * n / 2;
        let g = random_connected(rng, n, m);
        out.push(brute(format!("vertex-cover G({n},{m})"), MinVertexCover::new(g).program()));
    }
    for n in [10, 11, 11, 12, 12, 13, 14] {
        let g = random_connected(rng, n, n - 1);
        out.push(brute(format!("vertex-cover tree({n})"), MinVertexCover::new(g).program()));
    }
    for n in [7, 7, 8, 8] {
        let m = 3 * n / 2;
        let g = random_connected(rng, n, m);
        out.push(brute(format!("max-cut G({n},{m})"), MaxCut::new(g).program()));
    }
    for n in [10, 11, 11, 12, 12, 13, 14] {
        let g = random_connected(rng, n, n);
        out.push(brute(format!("max-cut G({n},{n})"), MaxCut::new(g).program()));
    }
    for n in [4, 4, 5, 5, 5] {
        let g = planted_two_cliques(rng, n, n / 2, 2);
        out.push(brute(format!("clique-cover 2x{n}"), CliqueCover::new(g, 2).program()));
    }
    for _ in 0..2 {
        let g = planted_three_colorable(rng, 3, 2);
        out.push(brute("map-coloring 3x3".into(), MapColoring::new(g, 3).program()));
    }
    for n in [6, 7] {
        let ec = exact_cover(rng, n, n / 2);
        let p = MinSetCover::from_exact_cover(ec).program();
        out.push(brute(format!("min-set-cover n={n}"), p));
    }
    let p = planted_3sat(rng, 4, 6).program_dual_rail();
    out.push(brute("3-sat n=4 m=6".into(), p));
    out
}

/// The sweep's five fixed programs: the study shape runs the same few
/// programs under many job seeds.
fn anneal_sweep() -> Vec<Instance> {
    let two_k4 = {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for base in [0, 4] {
            for u in base..base + 4 {
                edges.extend((u + 1..base + 4).map(|v| (u, v)));
            }
        }
        edges.extend([(0, 4), (1, 5), (3, 6)]);
        Graph::new(8, edges)
    };
    vec![
        brute("map-coloring cycle(5) x3".into(), MapColoring::new(Graph::cycle(5), 3).program()),
        Instance {
            label: "vertex-cover circulant(14,4)".into(),
            program: MinVertexCover::new(Graph::circulant(14, 4)).program(),
            reference: Reference::CirculantCover { n: 14 },
        },
        Instance {
            label: "max-cut clique_chain(5)".into(),
            program: MaxCut::new(Graph::clique_chain(5)).program(),
            reference: Reference::ChainCut { k: 5 },
        },
        brute("clique-cover 2x8".into(), CliqueCover::new(two_k4, 2).program()),
        Instance {
            label: "vertex-cover clique_chain(5)".into(),
            program: MinVertexCover::new(Graph::clique_chain(5)).program(),
            reference: Reference::ChainCover { k: 5 },
        },
    ]
}

fn exact_classical(rng: &mut StdRng) -> Vec<Instance> {
    let mut out = Vec::new();
    for n in [34, 35, 35, 36, 36, 37, 37, 38, 38, 38, 39, 39, 39, 40, 40, 41] {
        out.push(circulant_cover(rng, n));
    }
    for k in [10, 10, 11, 11, 11, 12, 12, 12, 12, 13, 13, 13] {
        out.push(Instance {
            label: format!("vertex-cover clique_chain({k})"),
            program: MinVertexCover::new(chain_graph(rng, k)).program(),
            reference: Reference::ChainCover { k },
        });
    }
    for k in [7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 9] {
        out.push(Instance {
            label: format!("max-cut clique_chain({k})"),
            program: MaxCut::new(chain_graph(rng, k)).program(),
            reference: Reference::ChainCut { k },
        });
    }
    out
}

/// Ten-qubit graph problems and the smaller exact covers fill the
/// ranks past p50, eleven-qubit graphs hold p75, and the clique chains,
/// twelve-qubit exact covers and thirteen-qubit graphs sit above.
fn qaoa_gate(rng: &mut StdRng) -> Vec<Instance> {
    let mut out = Vec::new();
    for n in [10, 10, 10, 10, 10, 10, 11, 11, 11, 11, 11, 13] {
        let m = n + n / 2;
        let g = random_connected(rng, n, m);
        out.push(brute(format!("vertex-cover G({n},{m})"), MinVertexCover::new(g).program()));
    }
    for n in [10, 10, 10, 10, 10, 10, 10, 10, 11, 11, 11, 11, 11, 13] {
        let m = n + n / 2;
        let g = random_connected(rng, n, m);
        out.push(brute(format!("max-cut G({n},{m})"), MaxCut::new(g).program()));
    }
    for n in [12, 12, 13, 13, 14, 14, 14, 15, 15, 16, 16, 16] {
        out.push(brute(format!("exact-cover n={n}"), exact_cover(rng, n, 3).program()));
    }
    let g = chain_graph(rng, 4);
    out.push(brute("vertex-cover clique_chain(4)".into(), MinVertexCover::new(g).program()));
    let g = chain_graph(rng, 4);
    out.push(brute("max-cut clique_chain(4)".into(), MaxCut::new(g).program()));
    out
}

/// `p` with variable `v` renamed `perm[v]`: the same problem, posed
/// to the compiler, embedder and router under other names.
fn permuted(p: &Program, perm: &[usize]) -> Program {
    let mut q = Program::new();
    let vars = q.new_vars("x", p.num_vars()).expect("fresh names");
    for c in p.constraints() {
        let collection: Vec<Var> = c.collection().iter().map(|v| vars[perm[v.index()]]).collect();
        let selection = c.selection().iter().copied();
        if c.is_hard() {
            q.nck(collection, selection).expect("renamed hard constraint");
        } else {
            q.nck_soft_weighted(collection, selection, c.weight())
                .expect("renamed soft constraint");
        }
    }
    q
}

/// Seed of the fixed instance structures of `anneal_cold` and
/// `qaoa_gate`.
const STRUCTURE_SEED: u64 = 0x6e63_6b5f_6265_6e63;

/// The inputs of `workload` for `seed`.
///
/// The seed never changes how much work a job is: `exact_classical`
/// draws automorphic relabellings of fixed graphs (identical search
/// trees), `anneal_cold` and `qaoa_gate` rename the variables of
/// fixed-structure programs, and `anneal_sweep` runs fixed programs.
/// Every workload draws its job order and run seeds from the seed.
pub fn suite(workload: Workload, seed: u64) -> Suite {
    let mut rng = rng_for(seed, workload as u64 + 1);
    let mut fixed = rng_for(STRUCTURE_SEED, workload as u64 + 1);
    let mut rename = |instances: Vec<Instance>| -> Vec<Instance> {
        instances
            .into_iter()
            .map(|inst| {
                let perm = permutation(&mut rng, inst.program.num_vars());
                Instance { program: permuted(&inst.program, &perm), ..inst }
            })
            .collect()
    };
    let instances = match workload {
        Workload::AnnealCold => rename(anneal_cold(&mut fixed)),
        Workload::AnnealSweep => anneal_sweep(),
        Workload::ExactClassical => exact_classical(&mut rng),
        Workload::QaoaGate => rename(qaoa_gate(&mut fixed)),
    };
    let jobs_per_instance = if workload == Workload::AnnealSweep { SWEEP_SEEDS } else { 1 };
    let mut jobs: Vec<Job> = (0..instances.len())
        .flat_map(|i| (0..jobs_per_instance).map(move |_| i))
        .map(|instance| Job { instance, seed: 0 })
        .collect();
    // Closed-loop order is seeded too, so no instance always runs
    // first after the warm-up.
    let order = permutation(&mut rng, jobs.len());
    jobs = order.into_iter().map(|i| jobs[i]).collect();
    for job in &mut jobs {
        job.seed = rng.random::<u64>();
    }
    Suite { instances, jobs }
}
