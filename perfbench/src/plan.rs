//! Workloads: what each connection sends, generated from the seed before
//! any clock starts. The program under test only ever sees these inputs.

use hsa_engine::{InstanceId, Request, TenantId};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree, Delta};
use hsa_workloads::{
    catalog, random_instance, request_stream, Placement, RandomTreeParams, StreamConfig, StreamOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotIds,
    Churn,
    Anytime,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotIds, Workload::Churn, Workload::Anytime];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotIds => "hot-ids",
            Workload::Churn => "churn",
            Workload::Anytime => "anytime",
        }
    }

    /// Requests each connection keeps in flight (closed loop).
    pub fn window(self) -> usize {
        match self {
            Workload::HotIds => 8,
            Workload::Churn => 4,
            Workload::Anytime => 1,
        }
    }

    /// The round-trip quantile reported as `rtt_tail_us`: the highest one
    /// with at least ten samples beyond it in every round that stayed
    /// steady across seeds. Above p90, hot-ids and churn rounds switch
    /// between runs with and without scheduler stalls of ≈4.4 ms (2 CPUs).
    pub fn tail(self) -> f64 {
        match self {
            Workload::HotIds | Workload::Churn => 0.90,
            Workload::Anytime => 0.95,
        }
    }
}

/// Client connections of every workload, one client thread each. Anytime
/// runs two sequential connections too: with one, 2 of the 4 racing arms
/// get the 2 CPUs first, so about half the races wait a time slice for
/// exact, and the median round trip flipped between those two modes, 25 %
/// apart across runs. Two overlapping races make the spread continuous.
pub const CONNS: usize = 2;

/// λ grid of the solve requests: λ = k / LAMBDA_STEPS.
const LAMBDA_STEPS: u32 = 8;
/// Id-addressed steps generated per hot-ids connection (replayed cyclically).
const HOT_STEPS: usize = 1 << 16;
/// Distinct random instances behind the churn stream (plus the built-in catalog).
const CHURN_INSTANCES: usize = 16_000;
/// CRUs per churn instance.
const CHURN_CRUS: usize = 20;
/// Upper bound on churn requests per measured second (sizes the stream so
/// a run never wraps it).
const CHURN_MAX_RPS: usize = 12_000;
/// CRUs per anytime instance: exact alone finishes in a few hundred µs.
const ANYTIME_CRUS: usize = 60;
/// The anytime budget, far above the slowest race observed.
pub const ANYTIME_BUDGET_MS: u64 = 250;
/// Upper bound on anytime requests per measured second.
const ANYTIME_MAX_RPS: usize = 900;

/// One step a connection sends.
#[derive(Clone, Debug)]
pub enum Step {
    SolveById {
        inst: usize,
        lambda: Lambda,
    },
    FrontierById {
        inst: usize,
    },
    Solve {
        inst: usize,
        lambda: Lambda,
    },
    Frontier {
        inst: usize,
    },
    /// Opens the instance's tenant ahead of its first delta.
    Open {
        inst: usize,
    },
    Delta {
        inst: usize,
        delta: Arc<Delta>,
        lambda: Lambda,
    },
    Anytime {
        inst: usize,
        lambda: Lambda,
    },
}

impl Step {
    pub fn inst(&self) -> usize {
        match *self {
            Step::SolveById { inst, .. }
            | Step::FrontierById { inst }
            | Step::Solve { inst, .. }
            | Step::Frontier { inst }
            | Step::Open { inst }
            | Step::Delta { inst, .. }
            | Step::Anytime { inst, .. } => inst,
        }
    }
}

/// The tenant that owns instance `inst`'s deltas.
pub fn tenant(inst: usize) -> TenantId {
    TenantId(inst as u64 + 1)
}

pub struct Plan {
    pub workload: Workload,
    pub instances: Vec<(Arc<CruTree>, Arc<CostModel>)>,
    /// How many leading instances set-up prepares (id-addressed steps
    /// refer to them by the ids set-up learns).
    pub prepared: usize,
    /// Per-connection steps. Every instance is served by one connection
    /// only, so each instance's history is the same on every replay.
    pub conns: Vec<Vec<Step>>,
    /// Whether a connection replays its steps cyclically.
    pub cycle: bool,
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Plan {
        match workload {
            Workload::HotIds => hot_ids(seed),
            Workload::Churn => churn(seed, seconds),
            Workload::Anytime => anytime(seed, seconds),
        }
    }

    /// The step at position `i` of connection `conn`, if the plan has one.
    pub fn step(&self, conn: usize, i: usize) -> Option<&Step> {
        let steps = &self.conns[conn];
        if self.cycle {
            steps.get(i % steps.len())
        } else {
            steps.get(i)
        }
    }

    /// The service request a step sends (`None` for tenant opens, which
    /// travel as their own frame kind).
    pub fn request(&self, step: &Step, ids: &[InstanceId]) -> Option<Request> {
        let arcs = |inst: usize| {
            let (tree, costs) = &self.instances[inst];
            (Arc::clone(tree), Arc::clone(costs))
        };
        Some(match step {
            Step::SolveById { inst, lambda } => Request::solve_by_id(ids[*inst], *lambda),
            Step::FrontierById { inst } => Request::frontier_by_id(ids[*inst]),
            Step::Solve { inst, lambda } => {
                let (t, c) = arcs(*inst);
                Request::solve_arc(t, c, *lambda)
            }
            Step::Frontier { inst } => {
                let (t, c) = arcs(*inst);
                Request::frontier_arc(t, c)
            }
            Step::Open { .. } => return None,
            Step::Delta {
                inst,
                delta,
                lambda,
            } => Request::delta_arc(tenant(*inst), Arc::clone(delta), *lambda),
            Step::Anytime { inst, lambda } => {
                let (t, c) = arcs(*inst);
                Request::solve_anytime_arc(t, c, *lambda, ANYTIME_BUDGET_MS)
            }
        })
    }
}

fn grid_lambda(rng: &mut StdRng) -> Lambda {
    Lambda::new(rng.random_range(0..=LAMBDA_STEPS), LAMBDA_STEPS).expect("grid λ is valid")
}

/// Zipf(1) over the built-in catalog, 90 % λ-grid solves and 10 %
/// frontiers, all id-addressed.
fn hot_ids(seed: u64) -> Plan {
    let instances: Vec<_> = catalog()
        .into_iter()
        .map(|sc| (Arc::new(sc.tree), Arc::new(sc.costs)))
        .collect();
    let weights: Vec<f64> = (1..=instances.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let conns = (0..CONNS)
        .map(|conn| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xC0DE << 8 | conn as u64));
            (0..HOT_STEPS)
                .map(|_| {
                    let mut draw = rng.random_range(0..1_000_000u32) as f64 / 1e6 * total;
                    let inst = weights
                        .iter()
                        .position(|w| {
                            draw -= w;
                            draw < 0.0
                        })
                        .unwrap_or(instances.len() - 1);
                    if rng.random_range(0..10u32) == 0 {
                        Step::FrontierById { inst }
                    } else {
                        Step::SolveById {
                            inst,
                            lambda: grid_lambda(&mut rng),
                        }
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        workload: Workload::HotIds,
        prepared: instances.len(),
        instances,
        conns,
        cycle: true,
    }
}

/// The `request_stream` Zipf stream over the built-in catalog plus
/// `CHURN_INSTANCES` random instances, by value, with tenant deltas.
/// Instance `i` is served by connection `i % 2`; its tenant is opened
/// in-stream right before its first delta.
fn churn(seed: u64, seconds: u64) -> Plan {
    let stream = request_stream(&StreamConfig {
        requests: CHURN_MAX_RPS * seconds.max(1) as usize,
        extra_instances: CHURN_INSTANCES,
        n_crus: CHURN_CRUS,
        zipf_milli: 700,
        solve_permille: 700,
        frontier_permille: 100,
        lambda_steps: LAMBDA_STEPS,
        seed,
        ..StreamConfig::default()
    });
    let mut conns = vec![Vec::new(); CONNS];
    let mut opened = vec![false; stream.instances.len()];
    for r in stream.requests {
        let inst = r.instance;
        let steps = &mut conns[inst % CONNS];
        match r.op {
            StreamOp::Solve { lambda } => steps.push(Step::Solve { inst, lambda }),
            StreamOp::Frontier => steps.push(Step::Frontier { inst }),
            StreamOp::Delta { delta, lambda } => {
                if !std::mem::replace(&mut opened[inst], true) {
                    steps.push(Step::Open { inst });
                }
                steps.push(Step::Delta {
                    inst,
                    delta: Arc::new(delta),
                    lambda,
                });
            }
        }
    }
    Plan {
        workload: Workload::Churn,
        instances: stream
            .instances
            .into_iter()
            .map(|sc| (Arc::new(sc.tree), Arc::new(sc.costs)))
            .collect(),
        prepared: 0,
        conns,
        cycle: false,
    }
}

/// Distinct random `ANYTIME_CRUS`-CRU instances, one anytime solve each.
fn anytime(seed: u64, seconds: u64) -> Plan {
    let count = ANYTIME_MAX_RPS * seconds.max(1) as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11_7143);
    let params = RandomTreeParams {
        n_crus: ANYTIME_CRUS,
        placement: Placement::Random,
        ..RandomTreeParams::default()
    };
    let instances: Vec<_> = (0..count)
        .map(|i| {
            let (tree, costs) =
                random_instance(&params, seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
            (Arc::new(tree), Arc::new(costs))
        })
        .collect();
    let mut conns = vec![Vec::new(); CONNS];
    for inst in 0..count {
        conns[inst % CONNS].push(Step::Anytime {
            inst,
            lambda: grid_lambda(&mut rng),
        });
    }
    Plan {
        workload: Workload::Anytime,
        instances,
        prepared: 0,
        conns,
        cycle: false,
    }
}
