//! The benchmark composes each workload itself (to time every call), so
//! these tests pin it to the program's own entry points: same phases,
//! same simulated results, same replay digest.  They run each workload
//! at its benchmark configuration with fewer client processes, which
//! keeps every knob that depends on the configuration (transfer size,
//! object classes, coalescing quantum) as the benchmark runs it.

use benchkit::scenarios::{run_mdtest, MdStore};
use benchkit::{run_scenario_digest, PhaseResult, RunSpec, Scenario};
use perfbench::{calibration, reference, run_workload, RunOutput, Workload, DEFAULT_SEED};

fn scaled(w: Workload) -> RunSpec {
    let mut spec = w.spec();
    spec.client_nodes = 2;
    spec.ppn = 4;
    spec
}

fn same(a: &PhaseResult, b: &PhaseResult) -> bool {
    a.ops == b.ops && a.bytes == b.bytes && a.seconds == b.seconds
}

/// `expected.json` must hold exactly what the program's own entry
/// point produces at the full configuration and default seed, so the
/// output check of every benchmark run traces back to the program.
fn assert_recorded(w: Workload, phases: &[&PhaseResult], digest: Option<u64>) {
    const GIB: f64 = (1u64 << 30) as f64;
    let expected = simkit::json::parse(include_str!("../expected.json")).unwrap();
    let rec = expected.get(w.name()).expect("workload recorded");
    if let Some(d) = digest {
        assert_eq!(
            rec.get("digest").and_then(|v| v.as_str()),
            Some(format!("{d:016x}").as_str()),
            "{}",
            w.name()
        );
    }
    let rec_phases = rec.get("phases").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(rec_phases.len(), phases.len());
    for (r, p) in rec_phases.iter().zip(phases) {
        let num = |key| r.get(key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(num("gib_s"), p.bandwidth() / GIB, "{}", w.name());
        assert_eq!(num("iops"), p.iops(), "{}", w.name());
    }
}

/// Specs and seeds each composition test covers: a reduced run at two
/// seeds, and the full benchmark configuration at the default seed
/// (some knobs, such as the fair-share tolerance, only change results
/// at full scale).
fn cases(w: Workload) -> [(RunSpec, u64); 3] {
    [
        (scaled(w), DEFAULT_SEED),
        (scaled(w), 7),
        (w.spec(), DEFAULT_SEED),
    ]
}

fn assert_matches_scenario(w: Workload, scen: Scenario) {
    for (spec, seed) in cases(w) {
        let cal = calibration(seed);
        let ours = run_workload(w, &spec, &cal, false);
        let (theirs, digest) = run_scenario_digest(&spec, scen, &cal);
        assert_eq!(ours.digest, digest, "{} seed {seed}: digest", w.name());
        assert!(same(ours.phase("write").unwrap(), &theirs.write));
        assert!(same(ours.phase("read").unwrap(), &theirs.read));
        assert_eq!(ours.failed_ops, 0);
        if spec.procs() == w.spec().procs() {
            assert_recorded(w, &[&theirs.write, &theirs.read], Some(digest));
        }
    }
}

#[test]
fn ior_bulk_is_ior_daos() {
    assert_matches_scenario(Workload::IorBulk, Scenario::IorDaos);
}

#[test]
fn ior_small_il_is_ior_dfuse_il() {
    assert_matches_scenario(Workload::IorSmallIl, Scenario::IorDfuseIl);
}

#[test]
fn mdtest_meta_is_run_mdtest_on_dfuse() {
    let w = Workload::MdtestMeta;
    for (spec, seed) in cases(w) {
        let cal = calibration(seed);
        let ours = run_workload(w, &spec, &cal, false);
        let theirs = run_mdtest(&spec, MdStore::Dfuse, &cal);
        for (name, want) in ["create", "stat", "remove"].into_iter().zip(&theirs) {
            assert!(same(ours.phase(name).unwrap(), want), "seed {seed}: {name}");
        }
        if spec.procs() == w.spec().procs() {
            assert_recorded(w, &theirs.iter().collect::<Vec<_>>(), None);
        }
    }
}

fn redundancy_spec() -> RunSpec {
    let mut spec = Workload::RedundancyFull.spec();
    spec.ops_per_proc = 6;
    spec
}

#[test]
fn redundancy_full_rebuilds_scrubs_and_audits_clean() {
    let out = run_workload(
        Workload::RedundancyFull,
        &redundancy_spec(),
        &calibration(DEFAULT_SEED),
        false,
    );
    let c = out.checks.expect("redundancy-full reports its checks");
    assert!(c.shards_rebuilt > 0, "rebuild must move shards");
    assert_eq!(c.shards_lost, 0);
    assert_eq!(c.violations, 0);
    assert_eq!(c.served_corrupt, 0);
    assert!(c.scrub_bytes > 0);
    assert_eq!(c.verified_extents, out.phase("write").unwrap().ops as u64);
    assert_eq!(out.failed_ops, 0);
}

fn assert_trace_neutral(w: Workload, spec: &RunSpec) {
    let cal = calibration(DEFAULT_SEED);
    let plain: RunOutput = run_workload(w, spec, &cal, false);
    let traced = run_workload(w, spec, &cal, true);
    assert_eq!(plain.digest, traced.digest, "{}: traced digest", w.name());
    assert_eq!(plain.phases.len(), traced.phases.len());
    for (a, b) in plain.phases.iter().zip(&traced.phases) {
        assert!(same(&a.result, &b.result), "{}: {}", w.name(), a.name);
    }
    assert_eq!(plain.checks, traced.checks);
    // the traced run saw the engine and every measured op
    assert!(traced.telemetry["engine.flows.started"] > 0);
    assert_eq!(traced.probe.op_ns.len() as u64, traced.attempted());
    assert!(plain.telemetry.is_empty() && plain.probe.op_ns.is_empty());
}

#[test]
fn tracing_leaves_every_workload_unchanged() {
    for w in Workload::ALL {
        let spec = match w {
            Workload::RedundancyFull => redundancy_spec(),
            _ => scaled(w),
        };
        assert_trace_neutral(w, &spec);
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}

/// `run.py` checks every repetition at a seed against `reference`, so
/// it must give what the benchmark's own composition gives.
#[test]
fn reference_agrees_with_the_benchmark_at_other_seeds() {
    for w in Workload::ALL {
        let spec = scaled(w);
        let cal = calibration(604_776_446);
        let Some(r) = reference(w, &spec, &cal) else {
            assert_eq!(w, Workload::RedundancyFull);
            continue;
        };
        let ours = run_workload(w, &spec, &cal, false);
        if let Some(d) = r.digest {
            assert_eq!(ours.digest, d, "{}", w.name());
        }
        assert_eq!(ours.phases.len(), r.phases.len());
        for (a, (name, b)) in ours.phases.iter().zip(&r.phases) {
            assert_eq!(a.name, *name);
            assert!(same(&a.result, b), "{}: {name}", w.name());
        }
    }
}
