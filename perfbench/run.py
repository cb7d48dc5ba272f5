#!/usr/bin/env python3
"""End-to-end host-time benchmark of the DAOS simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the `perfbench` package from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then starts its
binary once per repetition until --seconds have been measured.  Each
repetition is one process running one whole workload: deploy, phases,
background work, teardown.  The run checks every repetition's simulated
outputs and prints, as its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (medians over repetitions).
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
line before the result is a machine-readable report with every output
and every per-layer metric with its unit and base.

`--record` reruns every workload at the default seed and rewrites
`expected.json` next to this file; use it only when a change to the
simulator is meant to change simulated results.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["ior-bulk", "mdtest-meta", "ior-small-il", "redundancy-full"]
DEFAULT_SEED = 42

# End-to-end metrics: name -> unit.  All host time, from untraced runs.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "write_s": "s",
    "read_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics the result line carries (the report line has all).
# Each is defined on every workload; those that only exist on some
# workloads (format, mount, rebuild, scrub and verify times, the
# Full-mode data plane) appear in the report line only.
SPAN_LAYERS = ["il", "dfuse", "libdfs", "libdaos", "target", "retry", "rebuild", "scrub"]
PER_LAYER = {
    "simkit.self_s": "s",
    "simkit.resolves": "count",
    "simkit.fill_iters": "count",
    "simkit.flows_started": "count",
    "simkit.ops_completed": "count",
    "simkit.inflight_flows_peak": "count",
    "simkit.resolves_per_op": "ratio",
    "simkit.flows_per_op": "ratio",
    "simkit.ns_per_flow": "ns",
    "ior-bench.op_s": "s",
    "ior-bench.op_ns_p50": "ns",
    "ior-bench.op_ns_p99": "ns",
    "ior-bench.op_samples": "count",
    "ior-bench.setup_s": "s",
    "cluster.build_s": "s",
    "daos-core.deploy_s": "s",
    "daos-core.csum.verified": "count",
    "daos-core.rebuild.shards": "count",
    "daos-core.scrub.bytes": "bytes",
    "daos-core.verify.extents": "count",
    "harness.teardown_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    **{f"span.{layer}.total": "count" for layer in SPAN_LAYERS},
    **{f"span.{layer}.per_op": "ratio" for layer in SPAN_LAYERS},
}

# Traced repetitions must account for this share of their wall time.
MIN_COVERAGE = 0.95
# Other seeds perturb the calibration.  Where the program has its own
# entry point for a workload, every repetition must match its outputs at
# that seed exactly; redundancy-full has none, so its simulated GiB/s and
# IOPS must stay this close to the default seed's (40 seeds stayed
# within 0.05), on top of its oracle checks.
PLAUSIBLE = 0.15
# A repetition that has not ended by then is killed and counts as failed.
REP_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; exit non-zero if that fails."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        sys.exit(2)
    if r.returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(target, "release", "perfbench")


def one_rep(binary, workload, seed, traced, reference=False):
    """Run one repetition in its own process.

    Returns the parsed report (or None if the process failed) and its
    peak resident memory in MiB.  With `reference`, the process runs the
    program's own entry point for the workload instead.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if reference:
        cmd += ["--reference", "1"]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(REP_TIMEOUT_S, p.kill)
    killer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        # wait4 reaps the child and yields its own rusage
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    rss_mib = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    if p.returncode != 0:
        log(f"{workload} seed {seed} exited with {p.returncode}")
        return None, rss_mib
    try:
        return json.loads(out.strip().splitlines()[-1]), rss_mib
    except (ValueError, IndexError):
        log(f"{workload} seed {seed} printed no report")
        return None, rss_mib


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_rep(rep, workload, seed, expected, digest, ref):
    """Problems with one repetition's simulated outputs (empty if none).

    `ref` is the program's own entry point's output at this seed.
    """
    problems = []
    exp = expected.get(workload)
    if exp is None:
        return [f"no expected outputs recorded for {workload}"]
    if rep["failed"] != 0:
        problems.append(f"{rep['failed']} simulated ops failed")
    if digest is not None and rep["digest"] != digest:
        problems.append(f"digest {rep['digest']} differs from this seed's first run {digest}")
    phases = rep["phases"]
    if [p["name"] for p in phases] != [p["name"] for p in exp["phases"]]:
        return problems + ["phase list differs"]
    # at the default seed, exactly what expected.json recorded; at other
    # seeds, near it where no entry point gives the exact outputs
    rel = 1e-12 if seed == DEFAULT_SEED else None if ref["phases"] else PLAUSIBLE
    for got, want in zip(phases, exp["phases"]):
        if got["ops"] != want["ops"]:
            problems.append(f"{got['name']}: {got['ops']} ops, expected {want['ops']}")
        for key in ("gib_s", "iops"):
            if rel is not None and not close(got[key], want[key], rel):
                problems.append(f"{got['name']}: {key} {got[key]} vs expected {want[key]}")
    if seed == DEFAULT_SEED and rep["digest"] != exp["digest"]:
        problems.append(f"digest {rep['digest']}, expected {exp['digest']}")
    # at every seed, exactly what the program's own entry point gives
    if ref["phases"]:
        if [p["name"] for p in phases] != [p["name"] for p in ref["phases"]]:
            problems.append("phase list differs from the entry point's")
        for got, want in zip(phases, ref["phases"]):
            for key in ("ops", "gib_s", "iops"):
                if not close(got[key], want[key], 1e-12):
                    problems.append(
                        f"{got['name']}: {key} {got[key]}, entry point gives {want[key]}"
                    )
    if ref["digest"] is not None and rep["digest"] != ref["digest"]:
        problems.append(f"digest {rep['digest']}, entry point gives {ref['digest']}")
    if workload == "redundancy-full":
        c = rep["checks"] or {}
        write_ops = phases[0]["ops"]
        if c.get("violations") != 0:
            problems.append(f"{c.get('violations')} oracle violations")
        if c.get("served_corrupt") != 0:
            problems.append(f"served_corrupt = {c.get('served_corrupt')}")
        if c.get("shards_lost") != 0:
            problems.append(f"rebuild lost {c.get('shards_lost')} shards")
        if not c.get("shards_rebuilt"):
            problems.append("rebuild moved no shards")
        if c.get("verified_extents") != write_ops:
            problems.append(f"audit read {c.get('verified_extents')} extents of {write_ops}")
    if rep["traced"]:
        cov = rep["layers"]["trace.coverage"]["value"]
        if cov < MIN_COVERAGE:
            problems.append(f"per-layer self times cover {cov:.3f} of wall time")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def measure(binary, workload, seed, seconds, trace, expected):
    """Repeat the workload for `seconds`; return (result, report).

    The entry point's reference run comes first, inside the measured
    time, and doubles as the warm-up.
    """
    reps = []  # (report or None, rss_mib, traced)
    start = time.monotonic()
    ref, _ = one_rep(binary, workload, seed, False, reference=True)
    while ref is not None:
        traced = trace and len(reps) % 2 == 1
        rep, rss = one_rep(binary, workload, seed, traced)
        reps.append((rep, rss, traced))
        if rep is None:
            break  # the run is already incorrect; do not risk the time limit
        elapsed = time.monotonic() - start
        enough = len(reps) >= (2 if trace else 1)
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    ops = expected.get(workload, {}).get("ops", 0)
    attempted = failed = 0
    digest = None
    problems = []
    if ref is None:
        attempted = failed = ops
        problems.append("the entry point's reference run crashed")
    for i, (rep, _, traced) in enumerate(reps):
        if rep is None:
            attempted += ops
            failed += ops
            problems.append(f"run {i} crashed")
            continue
        digest = digest or rep["digest"]
        bad = check_rep(rep, workload, seed, expected, digest, ref)
        attempted += rep["attempted"]
        failed += rep["attempted"] if bad else rep["failed"]
        problems += [f"run {i}: {p}" for p in bad]

    good = [(r, rss, t) for r, rss, t in reps if r is not None]
    plain = [(r, rss) for r, rss, t in good if not t]
    traced_reps = [r for r, _, t in good if t]
    if trace:
        layers = {}
        for name, m in (traced_reps[0]["layers"].items() if traced_reps else []):
            layers[name] = dict(m, value=median([r["layers"][name]["value"] for r in traced_reps]))
        overhead = median([r["host"]["wall_s"] for r in traced_reps]) - median(
            [r["host"]["wall_s"] for r, _ in plain]
        )
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s", "base": "untraced wall_s"}
        if traced_reps:
            problems += [
                f"traced run reports {n} in {layers.get(n, {}).get('unit')}, not {u}"
                for n, u in PER_LAYER.items()
                if layers.get(n, {}).get("unit") != u
            ]
        metrics = {
            n: {"value": layers.get(n, {}).get("value", 0.0), "unit": u}
            for n, u in PER_LAYER.items()
        }
    else:
        host = lambda key: median([r["host"][key] for r, _ in plain])
        metrics = {n: {"value": host(n), "unit": u} for n, u in END_TO_END.items() if n != "peak_rss_mb"}
        metrics["peak_rss_mb"] = {"value": median([rss for _, rss in plain]), "unit": "MiB"}
        layers = None
    for p in problems:
        log(p)

    first = good[0][0] if good else {}
    report = {
        "report": "perfbench",
        "workload": workload,
        "seed": seed,
        "runs": len(reps),
        "traced_runs": len(traced_reps),
        "digest": digest,
        "phases": first.get("phases"),
        "checks": first.get("checks"),
        "failed_frac": failed / attempted if attempted else 1.0,
        "background_s": median([r["host"]["background_s"] for r, _ in plain]),
        "teardown_s": median([r["host"]["teardown_s"] for r, _ in plain]),
        "problems": problems,
    }
    if layers is not None:
        report["layers"] = layers
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def record(binary):
    """Rewrite expected.json from one default-seed run per workload."""
    expected = {}
    for w in WORKLOADS:
        rep, _ = one_rep(binary, w, DEFAULT_SEED, False)
        if rep is None:
            sys.exit(f"perfbench: {w} failed; nothing recorded")
        expected[w] = {
            "seed": DEFAULT_SEED,
            "digest": rep["digest"],
            "ops": rep["attempted"],
            "phases": [
                {k: p[k] for k in ("name", "ops", "gib_s", "iops")} for p in rep["phases"]
            ],
        }
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2)
        f.write("\n")
    log(f"recorded {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in an unsigned 64-bit integer")

    binary = build()
    if args.record:
        record(binary)
        return
    with open(EXPECTED) as f:
        expected = json.load(f)
    result, report = measure(
        binary, args.workload, args.seed, args.seconds, args.trace == 1, expected
    )
    print(json.dumps(report))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
