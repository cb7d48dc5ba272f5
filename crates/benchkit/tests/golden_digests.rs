//! Golden schedule pin: every paper scenario at the `replay_digests`
//! example's spec must reproduce these replay digests and bandwidth bits
//! exactly.  `determinism_replay` checks that two runs agree with each
//! other; this test checks that they agree with the recorded schedule,
//! so an engine optimisation that reorders floating-point work (and so
//! moves an event by a nanosecond) fails here even when it is itself
//! deterministic.
//!
//! A change that alters the schedule on purpose must re-record the table
//! (`cargo run --release -p bench --example replay_digests` prints the
//! digests) and say why in CHANGES.md.

use benchkit::{replay_all, Family, Faulted, Integrity, Rebalance, RunSpec, Scenario};
use cluster::Calibration;
use daos_core::{CsumStats, ScrubReport};

/// `(scenario, replay digest, write bandwidth bits, read bandwidth bits)`.
const GOLDEN: [(Scenario, u64, u64, u64); 12] = [
    (
        Scenario::IorDaos,
        0x0690_1230_c124_ad69,
        0x41e3_187e_94eb_0113,
        0x41f0_1c3c_6440_e609,
    ),
    (
        Scenario::IorDfs,
        0xb132_0b49_3152_bba8,
        0x41e2_c2f3_7059_3c78,
        0x41ed_7e30_4e9f_05c8,
    ),
    (
        Scenario::IorDfuse,
        0x441c_2250_df6a_7b7d,
        0x41e0_35d3_34b9_b62a,
        0x41e8_5c83_6a0c_0269,
    ),
    (
        Scenario::IorDfuseIl,
        0x1bba_446f_6cd9_9a83,
        0x41e2_4e3c_a64f_a918,
        0x41ec_2362_f125_0483,
    ),
    (
        Scenario::IorHdf5DfuseIl,
        0x3834_4100_8ea8_0f66,
        0x41cd_9091_7f2a_afc9,
        0x41d1_d1c6_1049_bcdb,
    ),
    (
        Scenario::IorHdf5Daos,
        0xe5fd_49eb_36a2_8d31,
        0x41d6_2938_394d_b0fd,
        0x41db_59de_2ab9_5745,
    ),
    (
        Scenario::FieldIo,
        0x60e5_f6c0_1eac_9dd6,
        0x41e0_f17c_ce65_758d,
        0x41e5_3b0d_81c4_695e,
    ),
    (
        Scenario::FdbDaos,
        0xc3a4_3173_c8ff_ec4c,
        0x41e1_668f_f1ad_f065,
        0x41ea_04f7_4b1d_e1c0,
    ),
    (
        Scenario::IorLustre,
        0x4101_d488_303c_0f64,
        0x41e1_c7f7_d89b_ba4e,
        0x41ed_67c2_81a0_5263,
    ),
    (
        Scenario::FdbLustre,
        0x12e1_86ed_9e02_9823,
        0x41db_6418_d88d_fff4,
        0x41dd_26f6_31f9_a713,
    ),
    (
        Scenario::IorCeph,
        0x6d15_e1b7_965d_418d,
        0x41d3_73e1_8225_bf8d,
        0x41da_072f_38af_8aa2,
    ),
    (
        Scenario::FdbCeph,
        0xf3da_b84f_6147_81f7,
        0x41d8_25bb_3098_3b94,
        0x41de_1b78_68ce_7a2d,
    ),
];

#[test]
fn every_scenario_matches_its_recorded_schedule() {
    let mut spec = RunSpec::new(2, 2, 4);
    spec.ops_per_proc = 12;
    let reports = replay_all(&spec, &Calibration::default());
    assert_eq!(reports.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for (r, &(scen, digest, write_bits, read_bits)) in reports.iter().zip(&GOLDEN) {
        assert_eq!(r.scenario, scen, "replay_all order changed");
        assert!(
            r.deterministic(),
            "{} replayed nondeterministically",
            scen.name()
        );
        let (write, read) = r.bandwidths[0];
        let got = (r.digests[0], write.to_bits(), read.to_bits());
        if got != (digest, write_bits, read_bits) {
            mismatches.push(format!(
                "{}: digest {:#018x} bw bits ({:#018x}, {:#018x}), recorded {digest:#018x} ({write_bits:#018x}, {read_bits:#018x})",
                scen.name(),
                got.0,
                got.1,
                got.2,
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "schedule moved:\n{}",
        mismatches.join("\n")
    );
}

/// The seed every background-engine scenario runs at in
/// [`BACKGROUND`].
const BACKGROUND_SEED: u64 = 3;

/// `(scenario, replay digest, checksum counters, scrub progress)` of one
/// seeded, audited case per scenario of the three families that drive
/// daos-core's background work: the faulted family (rebuild after a
/// crash), the rebalance family (migration waves, then rebuild) and the
/// integrity family (scrub and repair under bit rot).  The twelve-scenario
/// table above never runs rebuild, migration or scrub; this one pins
/// their schedules and their counters.  A mismatch prints the values to
/// re-record.
type BackgroundPin = (&'static str, u64, CsumStats, Option<ScrubReport>);

const BACKGROUND: [BackgroundPin; 9] = [
    (
        "IOR-easy/RP_2+crash",
        0x1c1e_f017_e965_350d,
        csum([352, 1, 1, 1048576, 0, 0]),
        None,
    ),
    (
        "IOR-hard/EC_2P1+crash",
        0x23a0_195d_9abf_10b0,
        csum([352, 1, 1, 524288, 0, 0]),
        None,
    ),
    (
        "FieldIO/EC_2P1+crash",
        0x7811_39b1_50bf_0111,
        csum([4224, 1, 1, 512, 0, 0]),
        None,
    ),
    (
        "rebalance/IOR-easy/RP_2",
        0x69c8_5a96_a9cf_3c9c,
        csum([352, 0, 0, 0, 0, 0]),
        None,
    ),
    (
        "rebalance/IOR-hard/EC_2P1",
        0xa98c_e3cf_0a71_840b,
        csum([352, 0, 0, 0, 0, 0]),
        None,
    ),
    (
        "rebalance/IOR-easy/S1",
        0x27d8_7200_60f8_a38e,
        csum([352, 0, 0, 0, 0, 0]),
        None,
    ),
    (
        "integrity/scrub-read-race",
        0xf64c_f482_f265_2886,
        csum([384, 4, 4, 4194304, 0, 0]),
        Some(scrub([32, 33554432, 2, 2, 0, 4, 1])),
    ),
    (
        "integrity/rot-under-rebalance",
        0xac62_7abe_8dd5_7574,
        csum([352, 2, 2, 2097152, 0, 0]),
        None,
    ),
    (
        "integrity/rot-beyond-redundancy",
        0xfe5a_5595_2e04_cb64,
        csum([361, 34, 0, 0, 17, 0]),
        None,
    ),
];

/// `CsumStats` from `[verified, detected, repaired, repaired_bytes,
/// unrepairable, served_corrupt]`.
const fn csum(v: [u64; 6]) -> CsumStats {
    CsumStats {
        verified: v[0],
        detected: v[1],
        repaired: v[2],
        repaired_bytes: v[3],
        unrepairable: v[4],
        served_corrupt: v[5],
    }
}

/// `ScrubReport` from `[units_scanned, bytes_scanned, detected, repaired,
/// unrepairable, waves, passes]`.
const fn scrub(v: [u64; 7]) -> ScrubReport {
    ScrubReport {
        units_scanned: v[0],
        bytes_scanned: v[1],
        detected: v[2],
        repaired: v[3],
        unrepairable: v[4],
        waves: v[5],
        passes: v[6],
    }
}

/// Run every scenario of `fam` at [`BACKGROUND_SEED`] and describe each
/// result that differs from its pinned row.
fn background_mismatches<F: Family>(fam: &F, cal: &Calibration) -> Vec<String> {
    let spec = fam.default_spec();
    let mut out = Vec::new();
    for &scen in F::SCENARIOS {
        let name = fam.scenario_name(scen);
        let plan = fam.seed_plan(&spec, scen, cal, BACKGROUND_SEED);
        let (run, _) = fam.run_plan(&spec, scen, cal, &plan, false);
        let got = (run.digest, run.csum, run.scrub);
        match BACKGROUND.iter().find(|row| row.0 == name) {
            Some(&(_, digest, csum, scrub)) if got == (digest, csum, scrub) => {}
            pinned => out.push(format!(
                "{name}: got ({:#018x}, {:?}, {:?}), pinned {pinned:?}",
                got.0, got.1, got.2
            )),
        }
    }
    out
}

#[test]
fn background_engines_match_their_recorded_schedules() {
    let cal = Calibration::default();
    let mut mismatches = background_mismatches(&Faulted, &cal);
    mismatches.extend(background_mismatches(&Rebalance, &cal));
    mismatches.extend(background_mismatches(&Integrity, &cal));
    assert!(
        mismatches.is_empty(),
        "background schedule moved:\n{}",
        mismatches.join("\n")
    );
}
