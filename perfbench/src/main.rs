//! One workload run, reported as one JSON line on stdout.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--trace 0|1] [--reference 0|1]
//! ```
//!
//! `--reference 1` instead runs the program's own entry point for the
//! workload and prints its digest and phases, against which `run.py`
//! checks every repetition at that seed.
//!
//! `run.py` starts this binary once per repetition, so each run is one
//! process whose peak resident memory the parent can read.

use benchkit::PhaseResult;
use perfbench::probe::PhaseKind;
use perfbench::{calibration, reference, run_workload, RunOutput, Workload};
use simkit::Json;
use std::process::ExitCode;

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// The self-time layers whose sum must cover the traced wall time.
const SELF_TIMES: [&str; 11] = [
    "cluster.build_s",
    "daos-core.deploy_s",
    "daos-dfs.format_s",
    "daos-dfuse.mount_s",
    "ior-bench.setup_s",
    "ior-bench.op_s",
    "simkit.self_s",
    "daos-core.rebuild_s",
    "daos-core.scrub_s",
    "daos-core.verify_s",
    "harness.teardown_s",
];

/// Span layers whose counts the traced run reports per layer.
const SPAN_LAYERS: [&str; 11] = [
    "ior", "mdtest", "il", "dfuse", "libdfs", "libdaos", "target", "retry", "rebuild", "scrub",
    "csum",
];

fn str(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Per-layer metrics of a traced run: `name -> {value, unit[, base]}`.
#[derive(Default)]
struct Layers(Vec<(String, Json)>);

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let m = obj(vec![("value", Json::num_f64(value)), ("unit", str(unit))]);
        self.0.push((name.to_string(), m));
    }
    /// `num / den`, reported with the name of its base `den`.
    fn ratio(&mut self, name: &str, num: f64, den: f64, unit: &str, base: &str) {
        let v = if den > 0.0 { num / den } else { 0.0 };
        let m = obj(vec![
            ("value", Json::num_f64(v)),
            ("unit", str(unit)),
            ("base", str(base)),
        ]);
        self.0.push((name.to_string(), m));
    }
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i] as f64
}

fn layers(out: &RunOutput) -> Json {
    let p = &out.probe;
    let mut l = Layers::default();
    let wall = out.wall.as_secs_f64();
    let mut accounted = 0.0;
    for name in SELF_TIMES {
        let s = p.layer_s(name);
        accounted += s;
        l.put(name, s, "s");
    }
    l.put("trace.wall_s", wall, "s");
    l.put("trace.accounted_s", accounted, "s");
    l.ratio("trace.coverage", accounted, wall, "ratio", "trace.wall_s");

    let tel = |name: &str| out.telemetry.get(name).copied().unwrap_or(0) as f64;
    let ops = tel("engine.ops.completed");
    let flows = tel("engine.flows.started");
    let resolves = tel("engine.fairshare.resolves");
    l.put("simkit.resolves", resolves, "count");
    l.put(
        "simkit.fill_iters",
        tel("engine.fairshare.fill_iters"),
        "count",
    );
    l.put("simkit.flows_started", flows, "count");
    l.put("simkit.ops_completed", ops, "count");
    l.put(
        "simkit.inflight_flows_peak",
        out.inflight_peak as f64,
        "count",
    );
    l.ratio(
        "simkit.resolves_per_op",
        resolves,
        ops,
        "ratio",
        "simkit.ops_completed",
    );
    l.ratio(
        "simkit.flows_per_op",
        flows,
        ops,
        "ratio",
        "simkit.ops_completed",
    );
    l.ratio(
        "simkit.ns_per_flow",
        p.layer_s("simkit.self_s") * 1e9,
        flows,
        "ns",
        "simkit.flows_started",
    );

    let mut op_ns = p.op_ns.clone();
    op_ns.sort_unstable();
    l.put("ior-bench.op_ns_p50", percentile(&op_ns, 0.50), "ns");
    l.put("ior-bench.op_ns_p99", percentile(&op_ns, 0.99), "ns");
    l.put("ior-bench.op_samples", op_ns.len() as f64, "count");

    // span counts from the telemetry registry, per (layer, op) and per
    // layer, each also per benchmark op
    let bench_ops = out.attempted() as f64;
    let mut per_layer = [0.0; SPAN_LAYERS.len()];
    for (name, &total) in &out.telemetry {
        let Some(rest) = name.strip_prefix("span.") else {
            continue;
        };
        l.put(name, total as f64, "count");
        if let Some(i) = SPAN_LAYERS
            .iter()
            .position(|layer| rest.split('.').next() == Some(layer))
        {
            per_layer[i] += total as f64;
        }
    }
    for (layer, total) in SPAN_LAYERS.iter().zip(per_layer) {
        l.put(&format!("span.{layer}.total"), total, "count");
        l.ratio(
            &format!("span.{layer}.per_op"),
            total,
            bench_ops,
            "ratio",
            "attempted",
        );
    }

    let c = out.checks.unwrap_or_default();
    l.put("daos-core.csum.verified", c.csum_verified as f64, "count");
    l.put("daos-core.rebuild.shards", c.shards_rebuilt as f64, "count");
    l.put("daos-core.scrub.bytes", c.scrub_bytes as f64, "bytes");
    l.put(
        "daos-core.verify.extents",
        c.verified_extents as f64,
        "count",
    );
    if out.checks.is_some() {
        // the Full-mode data plane: callback time per MiB moved, which
        // on this workload is daos-core's EC encode and checksum work
        let mib = |kind| {
            out.phases
                .iter()
                .filter(|ph| ph.kind == kind)
                .map(|ph| ph.result.bytes)
                .sum::<f64>()
                / MIB
        };
        l.ratio(
            "daos-core.write_ns_per_mib",
            p.write_cb.as_secs_f64() * 1e9,
            mib(PhaseKind::Write),
            "ns",
            "MiB written",
        );
        l.ratio(
            "daos-core.read_ns_per_mib",
            p.read_cb.as_secs_f64() * 1e9,
            mib(PhaseKind::Read),
            "ns",
            "MiB read",
        );
    }
    Json::Obj(l.0)
}

fn phase_json(name: &str, r: &PhaseResult) -> Json {
    obj(vec![
        ("name", str(name)),
        ("ops", Json::num_u64(r.ops as u64)),
        ("sim_s", Json::num_f64(r.seconds)),
        ("gib_s", Json::num_f64(r.bandwidth() / GIB)),
        ("iops", Json::num_f64(r.iops())),
    ])
}

/// The program's own entry point's outputs; `phases` is null where the
/// workload has none.
fn reference_report(w: Workload, seed: u64) -> Json {
    let (digest, phases) = match reference(w, &w.spec(), &calibration(seed)) {
        Some(r) => (
            r.digest.map_or(Json::Null, |d| str(&format!("{d:016x}"))),
            Json::Arr(r.phases.iter().map(|(n, p)| phase_json(n, p)).collect()),
        ),
        None => (Json::Null, Json::Null),
    };
    obj(vec![
        ("workload", str(w.name())),
        ("seed", Json::num_u64(seed)),
        ("digest", digest),
        ("phases", phases),
    ])
}

fn report(w: Workload, seed: u64, traced: bool, out: &RunOutput) -> Json {
    let int = Json::num_u64;
    let secs = |d: std::time::Duration| Json::num_f64(d.as_secs_f64());
    let phases = out
        .phases
        .iter()
        .map(|ph| phase_json(ph.name, &ph.result))
        .collect();
    let checks = match out.checks {
        Some(c) => obj(vec![
            ("shards_rebuilt", int(c.shards_rebuilt)),
            ("shards_lost", int(c.shards_lost)),
            ("scrub_bytes", int(c.scrub_bytes)),
            ("verified_extents", int(c.verified_extents)),
            ("checked_groups", int(c.checked_groups)),
            ("violations", int(c.violations)),
            ("csum_verified", int(c.csum_verified)),
            ("served_corrupt", int(c.served_corrupt)),
        ]),
        None => Json::Null,
    };
    let p = &out.probe;
    let host = obj(vec![
        ("wall_s", secs(out.wall)),
        ("setup_s", secs(p.setup)),
        ("write_s", secs(p.write)),
        ("read_s", secs(p.read)),
        ("background_s", secs(p.background)),
        ("teardown_s", Json::num_f64(p.layer_s("harness.teardown_s"))),
    ]);
    let mut fields = vec![
        ("workload", str(w.name())),
        ("seed", int(seed)),
        ("traced", Json::Bool(traced)),
        ("digest", str(&format!("{:016x}", out.digest))),
        ("attempted", int(out.attempted())),
        ("failed", int(out.failed_ops)),
        ("phases", Json::Arr(phases)),
        ("checks", checks),
        ("host", host),
    ];
    if traced {
        fields.push(("layers", layers(out)));
    }
    obj(fields)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> [--trace 0|1] [--reference 0|1]");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut traced) = (None, perfbench::DEFAULT_SEED, false);
    let mut as_reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(&format!("bad --trace {value}")),
            },
            "--reference" => match value.as_str() {
                "0" => as_reference = false,
                "1" => as_reference = true,
                _ => return usage(&format!("bad --reference {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(w) = workload else {
        return usage("--workload is required");
    };
    if as_reference {
        println!("{}", reference_report(w, seed).render());
        return ExitCode::SUCCESS;
    }
    let out = run_workload(w, &w.spec(), &calibration(seed), traced);
    println!("{}", report(w, seed, traced, &out).render());
    ExitCode::SUCCESS
}
