//! The thread budget of the engine stack: the `Engine` owns no threads,
//! a `Service` owns exactly its request workers plus its portfolio's arm
//! workers, a batch leaves no thread behind, and dropping everything
//! gives every thread back.
//!
//! The checks compare exact `/proc/self/task` counts, so this must stay
//! the only test in its binary: a sibling test's threads running in the
//! same process would skew the counts.

#![cfg(target_os = "linux")]

use hsa_engine::{Engine, EngineConfig, PortfolioConfig, Service, ServiceConfig};
use hsa_graph::Lambda;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// The thread count once it reaches `want` or five seconds pass: a thread
/// whose join has returned can linger in `/proc/self/task` for a moment
/// while the kernel reaps it.
fn settled_count(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = thread_count();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn engine_spawns_nothing_and_service_spawns_exactly_its_pools() {
    let start = thread_count();

    let engine = Arc::new(Engine::new(EngineConfig::default()));
    assert_eq!(thread_count(), start, "Engine::new must spawn no thread");

    let sc = hsa_workloads::paper_scenario();
    let id = engine.prepare(&sc.tree, &sc.costs).unwrap();
    let queries: Vec<_> = (0..=16)
        .map(|n| (id, Lambda::new(n, 16).unwrap()))
        .collect();
    let answers = engine.solve_batch(&queries);
    assert!(answers.iter().all(Result::is_ok));
    assert_eq!(
        settled_count(start),
        start,
        "a multi-query solve_batch must leave no thread behind"
    );

    let cfg = ServiceConfig {
        workers: 3,
        portfolio: PortfolioConfig {
            threads: 2,
            ..PortfolioConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Service::new(Arc::clone(&engine), cfg);
    assert_eq!(
        thread_count(),
        start + cfg.workers + cfg.portfolio.threads,
        "Service::new must spawn its workers and its portfolio's arm workers, nothing else"
    );

    drop(service);
    drop(engine);
    assert_eq!(
        settled_count(start),
        start,
        "dropping the service and the engine must give every thread back"
    );
}
