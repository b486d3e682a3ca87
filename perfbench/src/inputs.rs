//! Seeded workload inputs: what each workload feeds the program, built
//! from the `--seed` argument alone and serialized to input bytes.

use crate::spans::Recorder;
use boolsubst_aig::write_aiger_binary;
use boolsubst_core::SubstOptions;
use boolsubst_network::{aig_from_network, write_blif, Format, Network};
use boolsubst_workloads::full_suite;
use boolsubst_workloads::generator::{random_network, GeneratorParams, Rng};
use boolsubst_workloads::large::{large_network, Family};
use boolsubst_workloads::scripts::{script_a, script_c};

/// The four workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    Mixed,
    CheckedArith,
    ServeClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::Mixed,
        Workload::CheckedArith,
        Workload::ServeClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Mixed => "mixed-1000",
            Workload::CheckedArith => "checked-arith",
            Workload::ServeClosed => "serve-closed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's sweeps run checked (guarded) apply.
    pub fn checked(self) -> bool {
        matches!(self, Workload::CheckedArith | Workload::ServeClosed)
    }
}

/// `full` is the benchmark; `smoke` shrinks every input so the test
/// suite can drive all four workloads in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One optimization job: input bytes plus how to run them.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub input: Vec<u8>,
    pub format: Format,
    pub opts: SubstOptions,
}

/// A workload's job list (in run order) and the AIG gate count of its
/// AIGER inputs.
#[derive(Debug)]
pub struct Inputs {
    pub jobs: Vec<Job>,
    pub aig_gates: usize,
}

/// mixed-1000: `large_network` size of each family's instance.
const MIXED_NODES: usize = 1_000;
/// mixed-1000: the instances are fixed and the seed orders them. The
/// controller and cones generators draw from their seed, and from one
/// draw to the next their sweeps differ by 10 % to 15 %, more than the
/// host's own noise on the fastest pass.
const MIXED_CONTENT_SEED: u64 = 1;
/// checked-arith: internal gates of the multiplier cone, and the adder's
/// `large_network` size.
const MULT_GATES: usize = 300;
const ADDER_NODES: usize = 500;

/// The cone of the first outputs of `net` (in declaration order) that
/// together reach `gates` internal gates, over the inputs it reads.
fn low_cone(net: &Network, gates: usize) -> Network {
    let mut needed = vec![false; net.id_bound()];
    let mut count = 0;
    let mut outputs = Vec::new();
    for (k, (_, driver)) in net.outputs().iter().enumerate() {
        if count >= gates {
            break;
        }
        outputs.push(k);
        let mut stack = vec![*driver];
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut needed[id.index()], true) {
                count += usize::from(net.node(id).cover().is_some());
                stack.extend_from_slice(net.node(id).fanins());
            }
        }
    }
    let inputs: Vec<usize> = (0..net.inputs().len())
        .filter(|&k| needed[net.inputs()[k].index()])
        .collect();
    crate::oracle::extract(net, &net.topo_order(), &inputs, &outputs)
}

/// Mixes the workload seed with a per-input index.
fn sub_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64() | 1
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed | 1);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn blif_job(label: String, net: &Network, opts: SubstOptions) -> Job {
    Job {
        label,
        input: write_blif(net).into_bytes(),
        format: Format::Blif,
        opts,
    }
}

fn aiger_job(label: String, net: &Network, opts: SubstOptions) -> (Job, usize) {
    let aig = aig_from_network(net);
    let job = Job {
        label,
        input: write_aiger_binary(&aig),
        format: Format::AigerBinary,
        opts,
    };
    (job, aig.num_ands())
}

/// Builds the inputs of `workload` from `seed`. Calls into the
/// generators are recorded as `workloads.gen` spans.
pub fn build(workload: Workload, seed: u64, size: Size, rec: &mut Recorder) -> Inputs {
    let smoke = size == Size::Smoke;
    let mut jobs = Vec::new();
    let mut aig_gates = 0;
    match workload {
        Workload::PaperSuite => {
            let mut circuits = rec.span("workloads.gen", 0, |_| full_suite());
            if smoke {
                circuits.truncate(4);
            }
            // Script B is left out: its `gcx` step breaks ties in hash
            // map order, so its output differs from process to process
            // and the same seed would not give the same inputs.
            for net in &circuits {
                for (script, prepare) in [("A", script_a as fn(&mut Network)), ("C", script_c)] {
                    let mut prepared = net.clone();
                    rec.span("workloads.gen", 0, |_| prepare(&mut prepared));
                    for opts in boolsubst_core::all_configs() {
                        let label = format!("{}/{script}/{}", net.name(), opts.mode.name());
                        jobs.push(blif_job(label, &prepared, opts));
                    }
                }
            }
            shuffle(&mut jobs, seed);
        }
        Workload::Mixed => {
            let nodes = if smoke { 600 } else { MIXED_NODES };
            for (k, family) in Family::ALL.into_iter().enumerate() {
                let net = rec.span("workloads.gen", 0, |_| {
                    large_network(family, nodes, sub_seed(MIXED_CONTENT_SEED, k as u64))
                });
                let opts = SubstOptions::extended();
                let (job, gates) = aiger_job(family.name().to_string(), &net, opts);
                aig_gates += gates;
                jobs.push(job);
            }
            shuffle(&mut jobs, seed);
        }
        Workload::CheckedArith => {
            let (mult_gates, adder_nodes) = if smoke {
                (150, 200)
            } else {
                (MULT_GATES, ADDER_NODES)
            };
            let opts = SubstOptions::extended().with_checked(true);
            let block = rec.span("workloads.gen", 0, |_| {
                large_network(Family::Multiplier, 1, sub_seed(seed, 0))
            });
            let (job, gates) = aiger_job(
                "multiplier".to_string(),
                &low_cone(&block, mult_gates),
                opts.clone(),
            );
            aig_gates += gates;
            jobs.push(job);
            let adder = rec.span("workloads.gen", 0, |_| {
                large_network(Family::Adder, adder_nodes, sub_seed(seed, 1))
            });
            let (job, gates) = aiger_job("adder".to_string(), &adder, opts);
            aig_gates += gates;
            jobs.push(job);
        }
        Workload::ServeClosed => {
            jobs = serve_jobs(size, rec);
        }
    }
    Inputs { jobs, aig_gates }
}

/// One round of the serve mix: twelve loadgen-shaped 40-node cones, four
/// generated paper-suite-shaped circuits after script A, and four
/// ~400-node random networks; jobs run ext checked, as the daemon does.
/// The jobs are fixed and the seed orders each round: behind the daemon's 10 ms
/// accept poll a small job's latency moves in 10 ms steps with its size,
/// so seeded contents would move the median by whole steps.
const SERVE_CONTENT_SEED: u64 = 1;

fn serve_jobs(size: Size, rec: &mut Recorder) -> Vec<Job> {
    let opts = || SubstOptions::extended().with_checked(true);
    let mut jobs = Vec::new();
    for k in 0..12 {
        let s = sub_seed(SERVE_CONTENT_SEED, 200 + k);
        let bytes = rec.span("workloads.gen", 0, |_| loadgen_cone(s, 40));
        jobs.push(Job {
            label: format!("cone{k}"),
            input: bytes,
            format: Format::Blif,
            opts: opts(),
        });
    }
    for (k, (inputs, nodes)) in [(8, 20), (10, 30), (9, 26), (11, 36)]
        .into_iter()
        .enumerate()
    {
        let params = GeneratorParams {
            inputs,
            nodes,
            ..GeneratorParams::default()
        };
        let net = rec.span("workloads.gen", 0, |_| {
            let mut net = random_network(sub_seed(SERVE_CONTENT_SEED, 300 + k as u64), &params);
            script_a(&mut net);
            net
        });
        jobs.push(blif_job(format!("suite{k}"), &net, opts()));
    }
    let medium_nodes = if size == Size::Smoke { 80 } else { 400 };
    for k in 0..4 {
        let params = GeneratorParams {
            inputs: 16,
            nodes: medium_nodes,
            ..GeneratorParams::default()
        };
        let net = rec.span("workloads.gen", 0, |_| {
            random_network(sub_seed(SERVE_CONTENT_SEED, 400 + k), &params)
        });
        jobs.push(blif_job(format!("medium{k}"), &net, opts()));
    }
    jobs
}

/// A loadgen-shaped BLIF: six inputs and a chain of seeded two-input
/// gates, the last two of which are outputs.
fn loadgen_cone(seed: u64, nodes: usize) -> Vec<u8> {
    const COVERS: [&str; 5] = [
        "11 1\n",
        "1- 1\n-1 1\n",
        "10 1\n01 1\n",
        "0- 1\n-0 1\n",
        "11 1\n00 1\n",
    ];
    let mut rng = Rng::new(seed);
    let mut out = String::from(".model cone\n.inputs i0 i1 i2 i3 i4 i5\n.outputs f g\n");
    let mut names: Vec<String> = (0..6).map(|i| format!("i{i}")).collect();
    for k in 0..nodes {
        let a = names[rng.below(names.len())].clone();
        let b = names[rng.below(names.len())].clone();
        let node = format!("n{k}");
        if a == b {
            out.push_str(&format!(".names {a} {node}\n1 1\n"));
        } else {
            let cover = COVERS[rng.below(COVERS.len())];
            out.push_str(&format!(".names {a} {b} {node}\n{cover}"));
        }
        names.push(node);
    }
    let f = &names[names.len() - 1];
    let g = &names[names.len() - 2];
    out.push_str(&format!(".names {f} f\n1 1\n.names {g} g\n1 1\n.end\n"));
    out.into_bytes()
}
