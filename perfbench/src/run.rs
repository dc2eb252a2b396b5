//! The system under test, set up the way a user would (engine, service,
//! TCP server, clients), and the closed-loop timed phase that drives it.

use crate::measure::{
    fingerprint, median, pretouched, process_cpu, release_free_memory, rss_bytes,
};
use crate::plan::{tenant, Plan, Step, Workload, CONNS};
use crate::trace::{req_id, Tracer, NO_PARENT};
use hsa_engine::net::wire::{self, FrameEncoder, NetReply};
use hsa_engine::net::{Client, NetConfig, NetServer, NetStats};
use hsa_engine::{
    ArmKind, Engine, EngineConfig, EngineStats, InstanceId, Service, ServiceConfig, ServiceStats,
};
use hsa_graph::Lambda;
use hsa_tree::Cut;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fingerprint recorded for a step whose answer failed.
pub const FAILED: u64 = u64::MAX;
/// Correlation ids of raw tenant-open frames (kept apart from the
/// client's own counter).
const OPEN_CORR: u64 = 1 << 62;

pub struct Rig {
    pub server: NetServer,
    pub clients: Vec<Client>,
    /// Ids of the instances set-up prepared.
    pub ids: Vec<InstanceId>,
}

/// The program's set-up: engine, service, server, client connections,
/// and the catalog the workload addresses by id.
pub fn setup(plan: &Plan) -> Result<Rig, String> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Arc::new(Service::new(engine, ServiceConfig::default()));
    let server = NetServer::bind("127.0.0.1:0", service, NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        clients.push(Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let mut ids = Vec::new();
    for (tree, costs) in &plan.instances[..plan.prepared] {
        let reply = clients[0]
            .solve(tree, costs, Lambda::HALF)
            .map_err(|e| format!("catalog prepare: {e}"))?;
        ids.push(
            reply
                .instance_id()
                .ok_or("catalog prepare returned no id")?,
        );
    }
    Ok(Rig {
        server,
        clients,
        ids,
    })
}

/// Median set-up time over `reps` fresh set-ups, each torn down outside
/// the clock and spaced `SETUP_GAP` apart, so one slow moment of a shared
/// machine cannot set the median.
pub fn setup_time(plan: &Plan, reps: usize) -> Result<f64, String> {
    const SETUP_GAP: Duration = Duration::from_millis(50);
    let mut times = Vec::with_capacity(reps);
    // The phase and the twin leave hundreds of MB freed but mapped;
    // set-ups timed on top of that ran up to 20× slower at first.
    release_free_memory();
    for _ in 0..reps {
        std::thread::sleep(SETUP_GAP);
        let t0 = Instant::now();
        let rig = setup(plan)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(rig);
    }
    Ok(median(&mut times))
}

/// The program's own counters at one instant.
pub struct Snap {
    pub net: NetStats,
    pub svc: ServiceStats,
    pub eng: EngineStats,
}

impl Snap {
    fn take(rig: &Rig) -> Snap {
        let service = rig.server.service();
        Snap {
            net: rig.server.net_stats(),
            svc: service.stats(),
            eng: service.engine().stats(),
        }
    }
}

/// What one connection saw during the timed phase.
pub struct ConnLog {
    pub sent: u64,
    pub opens: u64,
    pub received: u64,
    pub failed: u64,
    pub rtt_ns: Vec<u64>,
    /// Per step sent: fingerprint of the answer frame, or [`FAILED`].
    pub fps: Vec<u64>,
    /// Per step sent (anytime): the answered cut.
    pub cuts: Vec<Option<Cut>>,
    pub exact_wins: u64,
    /// Sum of `Portfolio::pending_arms` read right after each answer.
    pub pending_arms: u64,
    pub tracer: Tracer,
}

/// One round of the timed phase.
pub struct Round {
    pub seconds: f64,
    pub cpu_s: f64,
    pub received: u64,
    /// Round trips completed in this round, µs, ascending.
    pub rtt_us: Vec<f64>,
}

pub struct Phase {
    pub rounds: Vec<Round>,
    pub rss_after: u64,
    pub before: Snap,
    pub after: Snap,
    pub logs: Vec<ConnLog>,
    pub epoch: Instant,
}

impl Phase {
    pub fn received(&self) -> u64 {
        self.logs.iter().map(|l| l.received).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    /// The median over rounds of `f`.
    pub fn per_round(&self, f: impl Fn(&Round) -> f64) -> f64 {
        let mut v: Vec<f64> = self.rounds.iter().map(f).collect();
        median(&mut v)
    }
}

/// Empty per-connection logs for a phase of `seconds`. Their buffers are
/// backed by resident pages from the start, so filling them does not read
/// as memory the program retained; allocate them before set-up.
pub fn logs(seconds: f64, traced: bool) -> (Instant, Vec<ConnLog>) {
    let cap = (seconds.ceil() as usize).max(1) * 40_000;
    let epoch = Instant::now();
    let logs = (0..CONNS)
        .map(|_| ConnLog {
            sent: 0,
            opens: 0,
            received: 0,
            failed: 0,
            rtt_ns: pretouched(cap, u64::MAX),
            fps: pretouched(cap, u64::MAX),
            cuts: Vec::new(),
            exact_wins: 0,
            pending_arms: 0,
            tracer: Tracer::new(epoch, traced),
        })
        .collect();
    (epoch, logs)
}

/// Runs the closed loop on every connection for `seconds`, split into
/// `rounds` equal rounds on the same rig. Each round continues every
/// connection's steps where the last one stopped and drains before it
/// ends.
pub fn phase(
    plan: &Plan,
    rig: &mut Rig,
    (epoch, mut logs): (Instant, Vec<ConnLog>),
    seconds: f64,
    rounds: usize,
) -> Result<Phase, String> {
    let service = Arc::clone(rig.server.service());
    let ids = rig.ids.clone();
    let before = Snap::take(rig);
    let mut done = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let marks: Vec<(u64, usize)> = logs.iter().map(|l| (l.received, l.rtt_ns.len())).collect();
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds / rounds as f64);
        let results: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = rig
                .clients
                .iter_mut()
                .zip(logs.iter_mut())
                .enumerate()
                .map(|(conn, (client, log))| {
                    let (service, ids) = (&service, &ids);
                    s.spawn(move || drive(plan, conn, client, ids, service, deadline, log))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let cpu_s = (process_cpu() - cpu0).as_secs_f64();
        results.into_iter().collect::<Result<Vec<()>, String>>()?;
        let mut rtt_us: Vec<f64> = logs
            .iter()
            .zip(&marks)
            .flat_map(|(l, &(_, from))| l.rtt_ns[from..].iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        rtt_us.sort_by(f64::total_cmp);
        done.push(Round {
            seconds: elapsed,
            cpu_s,
            received: logs
                .iter()
                .zip(&marks)
                .map(|(l, &(r, _))| l.received - r)
                .sum(),
            rtt_us,
        });
    }
    Ok(Phase {
        rounds: done,
        rss_after: rss_bytes(),
        before,
        after: Snap::take(rig),
        logs,
        epoch,
    })
}

struct Inflight {
    corr: u64,
    step: usize,
    t0: Instant,
    t1: Instant,
}

/// One connection's closed loop: keep `window` requests in flight until
/// the deadline, then drain. Service answers arrive in submission order;
/// the server acknowledges a tenant open as soon as it has run it.
fn drive(
    plan: &Plan,
    conn: usize,
    client: &mut Client,
    ids: &[InstanceId],
    service: &Service,
    deadline: Instant,
    log: &mut ConnLog,
) -> Result<(), String> {
    let window = plan.workload.window();
    let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(window);
    let mut enc = FrameEncoder::new();
    let mut raw = Vec::new();
    let mut next = log.sent as usize;
    let err = |e: hsa_engine::net::ClientError| format!("connection {conn}: {e}");
    loop {
        while inflight.len() < window {
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            let step = plan.step(conn, next).ok_or_else(|| {
                format!("connection {conn}: the plan ran out of steps before the deadline")
            })?;
            let (corr, t1) = match plan.request(step, ids) {
                Some(req) => {
                    let corr = client.send(&req).map_err(err)?;
                    (corr, Instant::now())
                }
                None => {
                    let inst = step.inst();
                    let (tree, costs) = &plan.instances[inst];
                    let corr = OPEN_CORR | next as u64;
                    raw.clear();
                    enc.put_open_tenant(&mut raw, corr, tenant(inst), tree, costs);
                    let t1 = Instant::now();
                    client.send_raw(&raw).map_err(err)?;
                    log.opens += 1;
                    (corr, t1)
                }
            };
            inflight.push_back(Inflight {
                corr,
                step: next,
                t0,
                t1,
            });
            log.fps.push(FAILED);
            if plan.workload == Workload::Anytime {
                log.cuts.push(None);
            }
            log.sent += 1;
            next += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let frame = client.recv_raw().map_err(err)?;
        let t2 = Instant::now();
        let f = inflight
            .iter()
            .position(|f| f.corr == frame.corr)
            .and_then(|i| inflight.remove(i))
            .ok_or_else(|| {
                format!(
                    "connection {conn}: unexpected correlation id {}",
                    frame.corr
                )
            })?;
        let decoded = wire::decode_server_frame(&frame);
        let t3 = Instant::now();
        log.received += 1;
        log.rtt_ns.push((t3 - f.t0).as_nanos() as u64);
        let ok = match decoded {
            Ok(NetReply::Reply(reply)) => match (plan.workload, reply.anytime()) {
                (Workload::Anytime, Some(answer)) => {
                    log.pending_arms += service.portfolio().pending_arms() as u64;
                    log.exact_wins += (answer.winner == ArmKind::Exact) as u64;
                    log.cuts[f.step] = Some(answer.solution.cut.clone());
                    answer.exact_finished
                }
                (Workload::Anytime, None) => false,
                _ => true,
            },
            Ok(NetReply::TenantOpened) => {
                matches!(plan.step(conn, f.step), Some(Step::Open { .. }))
            }
            _ => false,
        };
        if ok {
            log.fps[f.step] = fingerprint(frame.kind, &frame.payload);
        } else {
            log.failed += 1;
        }
        let tr = &mut log.tracer;
        if tr.enabled {
            let req = req_id(conn, f.step);
            let root = tr.record("request", f.t0, t3, NO_PARENT, req);
            tr.record("client.encode", f.t0, f.t1, root, req);
            tr.record("client.wait", f.t1, t2, root, req);
            tr.record("client.decode", t2, t3, root, req);
        }
    }
    Ok(())
}

/// Checks that the program's counters balance over the phase: the
/// service answered everything it accepted, every request sent got a
/// reply, the server saw exactly the connections opened. Returns the
/// violations.
pub fn accounting(rig: &Rig, phase: &Phase) -> Vec<String> {
    let mut bad = Vec::new();
    let (b, a) = (&phase.before.svc, &phase.after.svc);
    let submitted = a.submitted - b.submitted;
    let (completed, failed) = (a.completed - b.completed, a.failed - b.failed);
    if submitted != completed + failed {
        bad.push(format!(
            "service: submitted {submitted} != completed {completed} + failed {failed}"
        ));
    }
    let requests: u64 = phase.logs.iter().map(|l| l.sent - l.opens).sum();
    if submitted != requests {
        bad.push(format!(
            "service accepted {submitted} requests, clients sent {requests}"
        ));
    }
    for (conn, l) in phase.logs.iter().enumerate() {
        if l.received != l.sent {
            bad.push(format!(
                "connection {conn}: received {} replies for {} requests",
                l.received, l.sent
            ));
        }
    }
    let accepted = phase.after.net.accepted;
    if accepted != rig.clients.len() as u64 {
        bad.push(format!(
            "server accepted {accepted} connections, {} opened",
            rig.clients.len()
        ));
    }
    bad
}
