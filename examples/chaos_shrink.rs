//! Chaos swarm walkthrough: sample a seeded fault schedule, plant a
//! real invariant violation, let the oracles catch it, shrink the
//! schedule to a minimal reproducer with delta debugging, and replay it
//! byte-identically from the emitted JSON artifact.
//!
//! ```text
//! cargo run --release --example chaos_shrink
//! ```

use benchkit::chaos::{
    default_chaos_spec, parse_schedule, replay, run_case, schedule_json, shrink, Family, Faulted,
};
use benchkit::faulted::FaultedScenario;
use cluster::Calibration;
use daos_core::TargetId;
use simkit::{FaultAction, FaultPlan, SimTime};

fn main() {
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 64;
    let cal = Calibration::default();
    let scen = FaultedScenario::IorEasyRp2;

    // --- 1. seeded generation: the swarm's schedules come from here -----
    let sampled = Faulted.seed_plan(&spec, scen, &cal, 7);
    println!("seed 7 samples {} fault events:", sampled.len());
    println!("{}\n", sampled.to_json());

    // --- 2. a schedule that really breaks an invariant -------------------
    // The rebuild chain is armed once, by the first crash; a crash that
    // lands *after* the rescan (crash + 2 ms) stays down with nothing
    // re-protecting its shard groups.  Everything else here is noise.
    let crash = |s: u16, t: u16| {
        FaultAction::TargetCrash(
            TargetId {
                server: s,
                target: t,
            }
            .pack(),
        )
    };
    let mut plan = FaultPlan::new();
    plan.at(SimTime(0), crash(1, 0)); // arms the rebuild
    plan.at(
        SimTime(200_000),
        FaultAction::DelayedCompletion {
            payload: 0,
            extra_ns: 40_000,
        },
    );
    plan.at(SimTime(500_000), crash(1, 1)); // absorbed by the rebuild
    plan.at(SimTime(3_000_000), crash(2, 1)); // stranded: after the rescan
    plan.at(
        SimTime(4_000_000),
        FaultAction::TargetRestart(
            TargetId {
                server: 1,
                target: 1,
            }
            .pack(),
        ),
    );

    let verdict = run_case(&Faulted, &spec, scen, &cal, 0xBAD, plan.clone());
    println!("planted schedule ({} events):", plan.len());
    println!("{}", verdict.render_line());
    print!("{}", verdict.oracle.render());

    // --- 3. shrink to the minimal reproducer ------------------------------
    let outcome = shrink(&Faulted, &spec, scen, &cal, &plan);
    println!(
        "\nshrunk {} -> {} events in {} probes ({} dropped, {} windows tightened):",
        plan.len(),
        outcome.plan.len(),
        outcome.probes,
        outcome.removed,
        outcome.tightened
    );
    println!("{}\n", outcome.plan.to_json());

    // --- 4. archive and replay byte-identically ---------------------------
    let json = schedule_json(scen.name(), 0xBAD, &spec, &outcome.plan);
    let arch = parse_schedule(&json).expect("artifact parses");
    let direct = run_case(&Faulted, &spec, scen, &cal, 0xBAD, outcome.plan.clone());
    let replayed = replay(&arch, &cal).expect("artifact replays");
    println!("archived artifact:\n{json}\n");
    println!(
        "replay digest {:#018x} == direct digest {:#018x}: {}",
        replayed.digest,
        direct.digest,
        replayed.digest == direct.digest
    );
    assert_eq!(replayed.digest, direct.digest);
    assert!(!replayed.passed(), "minimal repro still fails on replay");
}
