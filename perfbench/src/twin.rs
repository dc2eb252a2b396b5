//! The twin: an in-process `Service` fed, after the timed phase, the same
//! steps each connection completed, in the same order. Its answers check
//! the loopback answers byte for byte. In a traced run the replay also
//! times each layer's public functions on the same requests, from outside.

use crate::measure::fingerprint;
use crate::plan::{tenant, Plan, Step, Workload, ANYTIME_BUDGET_MS};
use crate::run::{ConnLog, FAILED};
use crate::trace::{req_id, Tracer, NO_PARENT};
use hsa_assign::{solve_with_frontiers, Expanded, ExpandedConfig, FrontierSet, Prepared, Solver};
use hsa_engine::net::wire::{self, Decoded, FrameDecoder, FrameEncoder};
use hsa_engine::{
    Engine, EngineConfig, InstanceId, Portfolio, PortfolioConfig, Service, ServiceConfig, Session,
    SessionConfig,
};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct Checked {
    /// Answers that differ from the twin's (or, for anytime, from
    /// `Expanded::solve`).
    pub mismatches: u64,
    /// Request frame sizes and reply payload sizes, in bytes.
    pub request_bytes: Vec<f64>,
    pub reply_bytes: Vec<f64>,
}

fn fresh_engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig::default()))
}

/// Replays every logged step on the twin. With an enabled tracer each
/// step also gets its layer spans, linked under the live `client.wait`
/// span of the same request.
///
/// The replay runs on a thread of its own. Run on the main thread, it
/// left every later timed phase in the process with a p99 near 4.4 ms
/// (hot-ids, 2 CPUs) instead of ≈1.1 ms; the cause is not isolated.
pub fn replay(
    plan: &Plan,
    ids: &[InstanceId],
    logs: &[ConnLog],
    tr: &mut Tracer,
) -> Result<Checked, String> {
    std::thread::scope(|s| {
        s.spawn(|| replay_here(plan, ids, logs, tr))
            .join()
            .unwrap_or_else(|_| Err("twin replay panicked".into()))
    })
}

fn replay_here(
    plan: &Plan,
    ids: &[InstanceId],
    logs: &[ConnLog],
    tr: &mut Tracer,
) -> Result<Checked, String> {
    let traced = tr.enabled;
    let waits = tr.index_of("client.wait");
    let twin = Service::new(fresh_engine(), ServiceConfig::default());
    // Control copies of the layers the service calls internally.
    let ctl = fresh_engine();
    let race = (traced && plan.workload == Workload::Anytime)
        .then(|| Portfolio::new(fresh_engine(), PortfolioConfig::default()));
    for (tree, costs) in &plan.instances[..plan.prepared] {
        for engine in [twin.engine(), &ctl] {
            engine
                .prepare(tree, costs)
                .map_err(|e| format!("twin catalog prepare: {e}"))?;
        }
    }
    let mut sessions: HashMap<usize, Session> = HashMap::new();
    let mut built = vec![false; plan.instances.len()];
    let mut memo: HashMap<(usize, Option<Lambda>), u64> = HashMap::new();
    let (mut enc, mut dec) = (FrameEncoder::new(), FrameDecoder::new());
    let (mut req_buf, mut out) = (Vec::new(), Vec::new());
    let mut checked = Checked::default();

    for (conn, log) in logs.iter().enumerate() {
        for (i, &want) in log.fps.iter().enumerate() {
            let step = plan
                .step(conn, i)
                .ok_or("logged step missing from the plan")?;
            let inst = step.inst();
            let (tree, costs) = &plan.instances[inst];
            let request = plan.request(step, ids);
            let req = req_id(conn, i);
            let parent = waits.get(&req).copied().unwrap_or(NO_PARENT);

            if traced {
                req_buf.clear();
                match &request {
                    Some(r) => enc.put_request(&mut req_buf, 0, r),
                    None => enc.put_open_tenant(&mut req_buf, 0, tenant(inst), tree, costs),
                }
                checked.request_bytes.push(req_buf.len() as f64);
                let (decoded, _) = tr.time("wire.decode", parent, req, || {
                    dec.push(&req_buf);
                    match dec.next(usize::MAX) {
                        Some(Decoded::Frame(f)) => {
                            wire::decode_request_parts(f.kind, f.tenant, f.payload).is_ok()
                        }
                        _ => false,
                    }
                });
                if !decoded {
                    return Err(format!("step {i} of connection {conn} does not decode"));
                }
            }

            // Anytime answers are checked against exact alone; the twin's
            // race only serves the traced layer timings.
            if let Step::Anytime { lambda, .. } = step {
                if traced {
                    let request = request.clone().expect("anytime steps are requests");
                    let (answer, call) =
                        tr.time("service.call", parent, req, || twin.submit(request).wait());
                    let eng = tr.open("engine", call, req);
                    let race = race.as_ref().expect("traced anytime replay races");
                    let budget = Duration::from_millis(ANYTIME_BUDGET_MS);
                    let t = Instant::now();
                    let (outcome, r) = tr.time("portfolio.race", eng, req, || {
                        race.solve_anytime(tree, costs, *lambda, budget)
                    });
                    if let Ok(o) = outcome {
                        let first = t + Duration::from_nanos(o.time_to_first_ns);
                        tr.record("portfolio.first_answer", t, first, r, req);
                    }
                    tr.close(eng);
                    if let Ok(reply) = answer {
                        out.clear();
                        let ((_, range), _) = tr.time("wire.reply_encode", parent, req, || {
                            enc.put_reply(&mut out, 0, 0, &reply)
                        });
                        checked.reply_bytes.push(range.len() as f64);
                    }
                }
                let (exact, _) = tr.time("portfolio.exact_alone", NO_PARENT, req, || {
                    Prepared::new(tree, costs).and_then(|p| Expanded::default().solve(&p, *lambda))
                });
                let same = match (exact, log.cuts.get(i)) {
                    (Ok(sol), Some(Some(cut))) => &sol.cut == cut,
                    _ => false,
                };
                if want != FAILED && !same {
                    checked.mismatches += 1;
                }
                continue;
            }

            // An id-addressed answer depends on its step alone: untraced,
            // the twin answers each distinct one once.
            let key = match *step {
                Step::SolveById { inst, lambda } => Some((inst, Some(lambda))),
                Step::FrontierById { inst } => Some((inst, None)),
                _ => None,
            };
            if let Some(&got) = key.filter(|_| !traced).and_then(|k| memo.get(&k)) {
                if want != FAILED && got != want {
                    checked.mismatches += 1;
                }
                continue;
            }
            let (answer, call) = tr.time("service.call", parent, req, || match &request {
                Some(r) => twin.submit(r.clone()).wait().map(Some),
                None => twin.open_tenant(tenant(inst), tree, costs).map(|()| None),
            });
            if traced {
                let eng = tr.open("engine", call, req);
                control(tr, eng, req, step, (tree, costs), &ctl, ids, &mut sessions);
                tr.close(eng);
                let by_value = matches!(step, Step::Solve { .. } | Step::Frontier { .. });
                if by_value && !std::mem::replace(&mut built[inst], true) {
                    let _ = tr.time("assign.build", NO_PARENT, req, || {
                        Prepared::new_owned((**tree).clone(), (**costs).clone())
                            .and_then(|p| FrontierSet::prepare(&p, &ExpandedConfig::default()))
                    });
                }
            }
            let got = match answer {
                Ok(Some(reply)) => {
                    out.clear();
                    let ((kind, range), _) = tr.time("wire.reply_encode", parent, req, || {
                        enc.put_reply(&mut out, 0, 0, &reply)
                    });
                    checked.reply_bytes.push(range.len() as f64);
                    fingerprint(kind, &out[range])
                }
                Ok(None) => fingerprint(wire::kind::TENANT_OPENED, &[]),
                Err(_) => FAILED,
            };
            if let Some(k) = key {
                memo.insert(k, got);
            }
            if want != FAILED && got != want {
                checked.mismatches += 1;
            }
        }
    }
    Ok(checked)
}

/// Times, on the control engine and sessions, the calls the service makes
/// for `step` on `(tree, costs)`: children of the `engine` span `eng`.
/// Their results are discarded: answers are checked on the twin's
/// service path, these calls only time the layers underneath it.
#[allow(clippy::too_many_arguments)]
fn control(
    tr: &mut Tracer,
    eng: u32,
    req: u64,
    step: &Step,
    (tree, costs): (&CruTree, &CostModel),
    ctl: &Engine,
    ids: &[InstanceId],
    sessions: &mut HashMap<usize, Session>,
) {
    let solve = |tr: &mut Tracer, id: InstanceId, lambda| {
        let (cached, _) = tr.time("engine.lookup", eng, req, || ctl.instance(id));
        if let Some(c) = cached {
            let _ = tr.time("assign.solve", eng, req, || {
                solve_with_frontiers(&c.prepared, &c.frontiers, lambda)
            });
        }
    };
    let frontier = |tr: &mut Tracer, id: InstanceId| {
        let _ = tr.time("engine.frontier", eng, req, || ctl.frontier(id));
    };
    let prepare = |tr: &mut Tracer| {
        tr.time("engine.prepare", eng, req, || ctl.prepare(tree, costs))
            .0
    };
    match step {
        Step::SolveById { inst, lambda } => solve(tr, ids[*inst], *lambda),
        Step::FrontierById { inst } => frontier(tr, ids[*inst]),
        Step::Solve { lambda, .. } => {
            if let Ok(id) = prepare(tr) {
                solve(tr, id, *lambda);
            }
        }
        Step::Frontier { .. } => {
            if let Ok(id) = prepare(tr) {
                frontier(tr, id);
            }
        }
        Step::Open { inst } => {
            let (session, _) = tr.time("assign.build", eng, req, || {
                Session::new(tree, costs, SessionConfig::default())
            });
            if let Ok(s) = session {
                sessions.insert(*inst, s);
            }
        }
        Step::Delta {
            inst,
            delta,
            lambda,
        } => {
            if let Some(s) = sessions.get_mut(inst) {
                let _ = tr.time("session.apply", eng, req, || s.apply(delta));
                let _ = tr.time("assign.solve", eng, req, || s.solve(*lambda));
            }
        }
        Step::Anytime { .. } => unreachable!("anytime steps are timed by the caller"),
    }
}
