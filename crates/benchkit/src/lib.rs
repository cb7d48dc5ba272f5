//! # benchkit — the paper-reproduction harness
//!
//! Drives the benchmark workloads over the simulated deployments and
//! regenerates every table and figure of the paper:
//!
//! * [`driver`] — runs a [`cluster::bench::ProcWorkload`] phase and
//!   applies the paper's bandwidth definition (first-op-start to
//!   last-op-end);
//! * [`workloads`] — Field I/O and fdb-hammer process adapters;
//! * [`scenarios`] — builders for every benchmark × interface × store
//!   combination, with three-repetition statistics;
//! * [`determinism`] — the replay harness: every scenario twice from
//!   fresh state, asserting identical digests and bandwidths;
//! * [`figures`] — the per-figure sweeps (Fig. 1–9 plus the §III-A
//!   hardware table and the §III-E/F IOR text results);
//! * [`report`] — rendering to aligned text tables and CSV;
//! * [`tracing`] — span-traced runs: Chrome `trace_event` JSON
//!   (Perfetto-loadable) and critical-path attribution exports;
//! * [`chaos`] — the chaos harness: one [`Family`] trait behind the
//!   faulted, engine, rebalance and integrity swarms, with generic
//!   case, swarm, shrink, archive and replay.

pub mod chaos;
pub mod determinism;
pub mod driver;
pub mod faulted;
pub mod figures;
pub mod integrity;
pub mod rebalance;
pub mod report;
pub mod runreport;
pub mod scaleout;
pub mod scenarios;
pub mod stats;
pub mod tracing;
pub mod verdict;
pub mod workloads;

pub use chaos::{
    archive_case, chaos_space, default_chaos_spec, engine_space, parse_schedule, replay, run_case,
    schedule_json, shrink, slug, swarm, ArchivedSchedule, CaseRun, ChaosVerdict, Engine, Family,
    Faulted, SwarmReport,
};
pub use determinism::{replay_all, replay_scenario, ScenarioReplay};
pub use driver::{run_phase, PhaseResult};
pub use faulted::{
    default_faulted_spec, replay_faulted, run_faulted, run_faulted_traced, run_faulted_with,
    FaultedOpts, FaultedReplay, FaultedReport, FaultedScenario, PlanSource,
};
pub use figures::{Figure, Point, Series};
pub use integrity::{
    default_integrity_spec, integrity_case_ok, integrity_plan, render_integrity_json,
    render_integrity_line, Integrity, IntegrityScenario,
};
pub use rebalance::{
    default_rebalance_spec, rebalance_space, run_rebalance_with, Rebalance, RebalanceOpts,
    RebalanceRunReport, RebalanceScenario,
};
pub use runreport::{
    default_slo_rules, faulted_slo_rules, report_chaos_case, report_faulted, report_rebalance,
    run_reported, LatencyRow, ReportedRun, ResourceReport, RunReport, RUN_REPORT_WINDOW_NS,
};
pub use scaleout::{run_scaleout, run_scaleout_with, ScaleoutConfig, ScaleoutReport, ScaleoutRung};
pub use scenarios::{
    analyze_scenario, auto_ops, run_reps, run_scenario, run_scenario_chaos, run_scenario_digest,
    PointStats, ResourceUse, RunResult, RunSpec, Scenario,
};
pub use stats::Stats;
pub use tracing::{trace_scenario, SpanExports, TracedRun};
pub use verdict::{evaluate, Verdict};
