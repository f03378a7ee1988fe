//! Conformance suite for the multi-tenant solve service.
//!
//! The service's whole contract is that multi-tenancy is *invisible* in the
//! results: a tenant's solve admitted through [`SolveService`] — queued
//! behind other tenants, executed on shared executors, optionally answered
//! from a memo another tenant filled — must be **bit-identical** to the
//! same solve run solo and cold.  No tolerances anywhere in this file.
//!
//! Covered:
//!
//! * engine solves through [`EngineService`] without sharing — bit-identical
//!   to solo cold solves, per tenant;
//! * engine solves **with** the shared cross-tenant [`ClassSolutionMemo`] —
//!   still bit-identical (a memo hit is the solution of a bit-identical
//!   canonical LP), with the tenant-attributed cache-hit counters proving
//!   the sharing actually happened;
//! * simulator epochs and engine solves admitted onto the *same* service;
//! * typed backpressure ([`ServiceError::QueueFull`]) and post-drain
//!   admission ([`ServiceError::Draining`]);
//! * graceful drain with scripted worker deaths in flight: requests are
//!   returned, not killed mid-round.

use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(seed: u64) -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![4, 5], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(seed),
    )
}

fn assert_batches_identical(label: &str, got: &LocalLpBatch, want: &LocalLpBatch) {
    assert_eq!(got.local_x, want.local_x, "{label}: solutions diverged");
    assert_eq!(got.class_of_ball, want.class_of_ball, "{label}: class map diverged");
    assert_eq!(got.class_keys, want.class_keys, "{label}: class keys diverged");
    assert_eq!(
        got.stats.unique_classes, want.stats.unique_classes,
        "{label}: class count diverged"
    );
}

#[test]
fn tenants_get_bit_identical_results_without_cache_sharing() {
    let service = EngineService::new(ServiceConfig { workers: 3, queue_capacity: 32 });
    let options = LocalLpOptions::new(1);
    let tenants: Vec<u64> = (1..=6).collect();
    let tickets: Vec<_> = tenants
        .iter()
        .map(|&t| service.submit_solve(t, workload(t), options).unwrap())
        .collect();
    for (&tenant, ticket) in tenants.iter().zip(tickets) {
        let through_service = ticket.wait().unwrap().unwrap();
        let solo = solve_local_lps(&workload(tenant), &options).unwrap();
        assert_batches_identical(&format!("tenant {tenant}"), &through_service, &solo);
        assert_eq!(service.counters(tenant).cache_hits, 0, "no sharing, no cache hits");
    }
    let completed = service.drain();
    assert_eq!(completed, tenants.len() as u64);
    for &tenant in &tenants {
        let counters = service.counters(tenant);
        assert_eq!((counters.queued, counters.completed), (1, 1), "tenant {tenant}");
    }
}

#[test]
fn shared_cache_stays_bit_identical_and_attributes_hits_to_tenants() {
    let service =
        EngineService::with_shared_cache(ServiceConfig { workers: 2, queue_capacity: 32 }, 4096);
    let options = LocalLpOptions::new(1);
    let inst = workload(77);
    let solo = solve_local_lps(&inst, &options).unwrap();

    // Tenant 1 fills the memo with a cold solve of the instance.
    let first = service
        .submit_solve(1, inst.clone(), options)
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_batches_identical("filling tenant", &first, &solo);
    assert!(service.shared_classes() > 0, "the first solve must populate the shared memo");

    // Tenants 2 and 3 solve the same instance: every class is now answered
    // from tenant 1's solutions — and still bit-identical to the solo cold
    // solve, because a hit is the solution of a bit-identical canonical LP.
    for tenant in [2u64, 3] {
        let reused = service
            .submit_solve(tenant, inst.clone(), options)
            .unwrap()
            .wait()
            .unwrap()
            .unwrap();
        assert_batches_identical(&format!("repeat tenant {tenant}"), &reused, &solo);
        assert_eq!(
            reused.stats.memo_hits, reused.stats.unique_classes,
            "every class of the repeat tenant must be a memo hit"
        );
        assert_eq!((reused.stats.lp_solves, reused.stats.total_pivots), (0, 0));
        assert_eq!(
            service.counters(tenant).cache_hits,
            reused.stats.unique_classes as u64,
            "memo hits are booked to the tenant that benefited"
        );
    }
    assert_eq!(service.counters(1).cache_hits, 0, "the cold filling solve hit nothing");
    service.drain();
}

#[test]
fn engine_solves_and_simulator_epochs_share_one_service() {
    let service = EngineService::new(ServiceConfig { workers: 2, queue_capacity: 16 });
    let options = LocalLpOptions::new(1);
    let inst = workload(23);

    // The simulator reference, solo.
    let (h, _) = communication_hypergraph(&inst);
    let network = Network::from_hypergraph(&h);
    let program = GatherProgram::new(&inst, 2);
    let reference = Simulator::sequential().run(&network, &program).unwrap();

    // Tenant 1 admits an engine solve, tenant 2 a worker-resident simulator
    // epoch — onto the same executors and fairness lanes.
    let solve_ticket = service.submit_solve(1, inst.clone(), options).unwrap();
    let epoch_ticket = Simulator::with_config(SimulatorConfig {
        backend: BackendKind::Loopback { shards: 3 },
        checkpoint: CheckpointPolicy::every(2),
        ..SimulatorConfig::default()
    })
    .submit_typed(service.inner(), 2, &network, program, &engine_registry())
    .unwrap();

    let batch = solve_ticket.wait().unwrap().unwrap();
    let solo = solve_local_lps(&inst, &options).unwrap();
    assert_batches_identical("engine tenant", &batch, &solo);

    let epoch = epoch_ticket.wait().unwrap().unwrap();
    assert_eq!(epoch.outputs, reference.outputs, "epoch tenant: outputs diverged");
    assert_eq!(epoch.messages, reference.messages, "epoch tenant: message count diverged");
    assert_eq!(epoch.rounds, reference.rounds, "epoch tenant: round count diverged");

    assert_eq!(service.drain(), 2);
    assert_eq!(service.counters(1).completed, 1);
    assert_eq!(service.counters(2).completed, 1);
}

#[test]
fn overload_is_typed_backpressure_and_drain_closes_admission() {
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 2 });
    // Park the lone executor so admissions pile up deterministically.
    let (release, released) = std::sync::mpsc::channel::<()>();
    let gate = service
        .submit(9, move || {
            let _ = released.recv();
        })
        .unwrap();
    let mut admitted = Vec::new();
    let overflow = loop {
        match service.submit(7, || ()) {
            Ok(ticket) => admitted.push(ticket),
            Err(e) => break e,
        }
    };
    assert_eq!(
        overflow,
        ServiceError::QueueFull { capacity: 2 },
        "overload must surface as the typed backpressure error"
    );
    release.send(()).unwrap();
    gate.wait().unwrap();
    for ticket in admitted {
        ticket.wait().unwrap();
    }
    service.drain();
    assert_eq!(
        service.submit(7, || ()).unwrap_err(),
        ServiceError::Draining,
        "admission after drain must fail typed"
    );
}

#[test]
fn drain_returns_in_flight_solves_even_with_scripted_worker_deaths() {
    // Each admitted request runs on a fault-injected loopback backend whose
    // worker dies mid-run, within the retry budget.  Drain must complete
    // them — respawn-and-replay, not kill — and every result must still be
    // bit-identical to the sequential reference.
    let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 16 });
    let options = LocalLpOptions::new(1);
    let tenants: Vec<u64> = (1..=4).collect();
    let tickets: Vec<_> = tenants
        .iter()
        .map(|&t| {
            let inst = workload(100 + t);
            service
                .submit(t, move || {
                    let backend = LoopbackBackend::new(engine_registry(), 4)
                        .with_workers(2)
                        .with_faults(FaultPlan { die_after_replies: Some(2), ..FaultPlan::none() })
                        .with_max_retries(1);
                    solve_local_lps_on(&inst, &options, &backend)
                })
                .unwrap()
        })
        .collect();
    let completed = service.drain();
    assert_eq!(completed, tenants.len() as u64, "drain returns every in-flight request");
    for (&tenant, ticket) in tenants.iter().zip(tickets) {
        let batch = ticket.wait().unwrap().unwrap();
        let solo = solve_local_lps(&workload(100 + tenant), &options).unwrap();
        assert_batches_identical(&format!("dying-worker tenant {tenant}"), &batch, &solo);
    }
}
