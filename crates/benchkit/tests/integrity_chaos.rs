//! End-to-end integrity acceptance: seeded bit rot against replicated
//! and erasure-coded stores is detected and transparently repaired with
//! zero corrupt bytes served; the integrity swarm runs green over both
//! repairable races; and the planted rot-beyond-redundancy case fails
//! loudly as Corruption, ddmin-shrinks to its minimal two-rot schedule,
//! and replays byte-identically from the archived JSON.

use benchkit::chaos::{parse_schedule, replay, run_case, schedule_json, shrink, swarm};
use benchkit::faulted::{run_faulted_with, FaultedOpts, FaultedScenario, PlanSource};
use benchkit::integrity::{
    default_integrity_spec, integrity_plan, render_integrity_line, Integrity, IntegrityScenario,
};
use cluster::Calibration;
use daos_core::{DataMode, OracleKind};
use simkit::{FaultAction, FaultPlan, SimTime};

fn tiny_spec() -> benchkit::RunSpec {
    let mut spec = default_integrity_spec();
    spec.ops_per_proc = 8;
    spec
}

/// A fixed schedule planting `rots` single-copy rots across the read
/// window, shards bounded by the widest redundancy group.
fn rot_plan(rots: u64, shards: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 0..rots {
        plan.at(
            SimTime(1_000_000 + i * 700_000),
            FaultAction::BitRot {
                locus: 0x5eed ^ (i * 0x9e37_79b9),
                shard: i % shards,
            },
        );
    }
    plan
}

#[test]
fn seeded_rot_is_detected_and_repaired_on_rp2_and_ec() {
    let spec = tiny_spec();
    let cal = Calibration::default();
    for (scen, shards) in [
        (FaultedScenario::IorEasyRp2, 2),
        (FaultedScenario::IorHardEc2p1, 3),
    ] {
        let opts = FaultedOpts {
            plan: PlanSource::Fixed(rot_plan(2, shards)),
            mode: DataMode::Full,
            oracles: true,
            ..FaultedOpts::default()
        };
        let (report, _) = run_faulted_with(&spec, scen, &cal, &opts);
        let oracle = report.oracles.expect("oracles ran");
        assert!(
            oracle.ok(),
            "{}: single-copy rot must repair transparently:\n{}",
            scen.name(),
            oracle.render()
        );
        assert!(
            report.csum.detected >= 1,
            "{}: planted rot went undetected",
            scen.name()
        );
        assert!(report.csum.repaired >= 1, "{}: no repair", scen.name());
        assert_eq!(report.csum.served_corrupt, 0, "{}", scen.name());
        assert_eq!(report.csum.unrepairable, 0, "{}", scen.name());
    }
}

#[test]
fn integrity_swarm_is_green_over_every_scenario() {
    let spec = tiny_spec();
    let cal = Calibration::default();
    let report = swarm(&Integrity, &spec, &cal, &[1, 2]);
    let verdicts = &report.verdicts;
    assert_eq!(verdicts.len(), 2 * IntegrityScenario::ALL.len());
    assert!(report.passed(), "integrity swarm:\n{}", report.render());
    for v in verdicts {
        assert_eq!(v.csum.served_corrupt, 0, "{}", render_integrity_line(v));
        assert!(v.csum.detected >= 1, "{}", render_integrity_line(v));
    }
    // the scrubbing scenario completed exactly one throttled pass per run
    for v in verdicts
        .iter()
        .filter(|v| v.scenario == IntegrityScenario::ScrubReadRace.name())
    {
        let scrub = v.scrub.expect("scrub-read-race scrubs");
        assert_eq!(scrub.passes, 1, "{}", render_integrity_line(v));
        assert!(scrub.units_scanned > 0);
        assert_eq!(scrub.unrepairable, 0);
    }
}

#[test]
fn rot_beyond_redundancy_shrinks_and_replays_from_archive() {
    let spec = tiny_spec();
    let cal = Calibration::default();
    let scen = IntegrityScenario::RotBeyondRedundancy;

    // 1. detection: the planted double rot fails loudly as Corruption
    let v = run_case(&Integrity, &spec, scen, &cal, 7, integrity_plan(scen, 7));
    assert!(
        v.passed(),
        "loud corruption expected:\n{}",
        render_integrity_line(&v)
    );
    assert!(!v.oracle.ok());
    assert!(v
        .oracle
        .violations
        .iter()
        .all(|viol| viol.oracle == OracleKind::Corruption));
    assert_eq!(v.csum.served_corrupt, 0, "refused, never served");
    assert!(v.csum.unrepairable >= 1);

    // 2. shrinking: ddmin keeps exactly the load-bearing rot pair
    let outcome = shrink(&Integrity, &spec, scen, &cal, &v.plan);
    assert!(outcome.reproduced, "shrinker must reproduce the corruption");
    assert_eq!(outcome.plan.len(), 2, "both rots are load-bearing");
    for ev in outcome.plan.events() {
        assert!(
            matches!(ev.action, FaultAction::BitRot { .. }),
            "only rots survive shrinking: {:?}",
            ev.action
        );
    }

    // 3. archive: the shrunken schedule round-trips through JSON and
    // replays byte-identically
    let direct = run_case(&Integrity, &spec, scen, &cal, 7, outcome.plan.clone());
    assert!(!direct.oracle.ok(), "shrunken schedule still screams");
    let json = schedule_json(scen.name(), 7, &spec, &outcome.plan);
    let arch = parse_schedule(&json).expect("archive parses");
    assert_eq!(arch.plan.to_json(), outcome.plan.to_json());
    let replayed = replay(&arch, &cal).expect("archive replays");
    assert_eq!(
        replayed.digest, direct.digest,
        "replay from archive is byte-identical"
    );
    assert_eq!(replayed.csum, direct.csum);
}
