//! The four workloads: their inputs (made from the seed only), one op of
//! each, and the validity checks that decide whether an op failed.

use crate::spans::Tracer;
use protocols::api::{AnchorRegistry, BeaconPayload, NodeId};
use rayon::prelude::*;
use rayon::ThreadPool;
use simcore::SimTime;
use sstsp::experiments::{fig1, fig2, fig3, fig4, Fidelity};
use sstsp::instrument::{
    BpBatch, BpView, DeliveryCtx, DeliveryFate, DeliveryObs, FaultAction, HookCaps, WindowOutcome,
};
use sstsp::scenario::TopologySpec;
use sstsp::{
    AttackerSpec, ChurnConfig, EngineHook, InvariantChecker, Network, ProtocolKind, RunResult,
    ScenarioConfig, Violation,
};
use sstsp_faults::{replay, run_case_traced, to_replayable_jsonl, FuzzCase, RecordedSchedule};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IbssLarge,
    MeshBridged,
    PaperFigures,
    HostileReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IbssLarge,
        Workload::MeshBridged,
        Workload::PaperFigures,
        Workload::HostileReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IbssLarge => "ibss_large",
            Workload::MeshBridged => "mesh_bridged",
            Workload::PaperFigures => "paper_figures",
            Workload::HostileReplay => "hostile_replay",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Bridged mesh of the `mesh_bridged` workload: 4 islands of 25×10
/// stations plus 3 gateways (n = 1003).
const MESH: (u32, u32, u32) = (4, 25, 10);
/// Simulated seconds of the two engine workloads (600 BPs).
const ENGINE_SECS: f64 = 60.0;

/// The two recorded-and-replayed cases of `hostile_replay`.
fn hostile_specs(seed: u64) -> [String; 2] {
    [
        format!(
            "n=103 dur=60 seed={seed} m=4 delta=300 plan=0 mesh=bridged:4:5:5 campaign=jamref:1:10:40"
        ),
        format!("n=100 dur=60 seed={seed} m=4 delta=300 plan=0 campaign=coalition:3:800:2:10:40"),
    ]
}

fn ibss_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::new(ProtocolKind::Sstsp, 1000, ENGINE_SECS, seed)
}

fn mesh_config(seed: u64) -> ScenarioConfig {
    let (domains, cols, rows) = MESH;
    bridged_config(domains, cols, rows, ENGINE_SECS, seed)
}

pub fn bridged_config(domains: u32, cols: u32, rows: u32, secs: f64, seed: u64) -> ScenarioConfig {
    let n = domains * cols * rows + domains - 1;
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, n, secs, seed);
    cfg.topology = Some(TopologySpec::Bridged {
        domains,
        cols,
        rows,
    });
    cfg
}

/// The paper's Sec. 5 scenario at full scale: 1000 s, 5 % churn every
/// 200 s with 50 s absences, reference departures at 300/500/800 s. This
/// mirrors what `sstsp::experiments` builds internally, so the benchmark
/// can time the build and every BP of the figure runs; every benchmark run
/// checks the mirror against the experiments themselves
/// (`mirror_mismatches`).
fn paper_scenario(protocol: ProtocolKind, n: u32, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(protocol, n, 1000.0, seed);
    cfg.churn = Some(ChurnConfig {
        period_s: 200.0,
        fraction: 0.05,
        absence_s: 50.0,
    });
    cfg.ref_leaves_s = vec![300.0, 500.0, 800.0];
    cfg.ref_absence_s = 50.0;
    cfg
}

const PAPER_ATTACK: AttackerSpec = AttackerSpec {
    start_s: 400.0,
    end_s: 600.0,
    error_us: 30.0,
};

/// The configs of one figure, in the order its runs appear.
fn fig_configs(fig: Fig, seed: u64) -> Vec<ScenarioConfig> {
    match fig {
        Fig::F1 => fig1::PAPER_SIZES
            .iter()
            .map(|&n| paper_scenario(ProtocolKind::Tsf, n, seed))
            .collect(),
        Fig::F2 => vec![paper_scenario(ProtocolKind::Sstsp, 500, seed).with_m(4)],
        Fig::F3 => {
            let mut cfg = paper_scenario(ProtocolKind::Tsf, 100, seed);
            cfg.attacker = Some(PAPER_ATTACK);
            cfg.ref_leaves_s.clear();
            vec![cfg]
        }
        Fig::F4 => {
            let mut cfg = paper_scenario(ProtocolKind::Sstsp, 500, seed).with_m(4);
            cfg.attacker = Some(PAPER_ATTACK);
            vec![cfg]
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig {
    F1,
    F2,
    F3,
    F4,
}

impl Fig {
    /// Longest jobs first, so that on a 2-thread pool each SSTSP figure
    /// lands on its own thread and the batch waits on one of them.
    pub const JOB_ORDER: [Fig; 4] = [Fig::F2, Fig::F4, Fig::F1, Fig::F3];

    pub fn index(self) -> usize {
        match self {
            Fig::F1 => 0,
            Fig::F2 => 1,
            Fig::F3 => 2,
            Fig::F4 => 3,
        }
    }

    fn run(self, seed: u64) -> Vec<RunResult> {
        match self {
            Fig::F1 => fig1::run(Fidelity::Paper, seed).runs,
            Fig::F2 => vec![fig2::run(Fidelity::Paper, seed).run],
            Fig::F3 => vec![fig3::run(Fidelity::Paper, seed).run],
            Fig::F4 => vec![fig4::run(Fidelity::Paper, seed).run],
        }
    }
}

/// Everything one workload op is run on, made from the seed.
pub enum Inputs {
    Engine(Box<ScenarioConfig>),
    Paper(u64),
    Hostile(Vec<FuzzCase>),
}

impl Inputs {
    pub fn new(w: Workload, seed: u64) -> Self {
        match w {
            Workload::IbssLarge => Inputs::Engine(Box::new(ibss_config(seed))),
            Workload::MeshBridged => Inputs::Engine(Box::new(mesh_config(seed))),
            Workload::PaperFigures => Inputs::Paper(seed),
            Workload::HostileReplay => Inputs::Hostile(
                hostile_specs(seed)
                    .iter()
                    .map(|s| FuzzCase::from_str(s).expect("benchmark case spec parses"))
                    .collect(),
            ),
        }
    }

    /// Every scenario `Network::build` is called for in one op, with
    /// multiplicity (a hostile case builds once to record, once to replay).
    pub fn op_scenarios(&self) -> Vec<ScenarioConfig> {
        match self {
            Inputs::Engine(cfg) => vec![(**cfg).clone()],
            Inputs::Paper(seed) => Fig::JOB_ORDER
                .iter()
                .flat_map(|&f| fig_configs(f, *seed))
                .collect(),
            Inputs::Hostile(cases) => cases
                .iter()
                .flat_map(|c| [c.scenario(), c.scenario()])
                .collect(),
        }
    }

    /// The one scenario the per-layer probes take their parameters from:
    /// the workload's own config, Fig. 2 (the slowest SSTSP leg) for the
    /// paper figures, the jammed mesh case for hostile replay.
    pub fn probe_scenario(&self) -> ScenarioConfig {
        match self {
            Inputs::Engine(cfg) => (**cfg).clone(),
            Inputs::Paper(seed) => fig_configs(Fig::F2, *seed).remove(0),
            Inputs::Hostile(cases) => cases[0].scenario(),
        }
    }

    /// Simulated station-BPs in one op.
    pub fn node_bps(&self) -> u64 {
        self.op_scenarios()
            .iter()
            .map(|c| u64::from(c.n_nodes) * c.total_bps())
            .sum()
    }
}

/// Timing of one figure job inside a `paper_figures` batch.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub fig: Fig,
    pub busy_s: f64,
}

/// Timing of one recorded-and-replayed case of `hostile_replay`.
#[derive(Debug, Clone, Copy)]
pub struct ReplayTiming {
    pub record_s: f64,
    pub encode_s: f64,
    pub parse_s: f64,
    pub replay_s: f64,
    pub events: u64,
    pub bytes: u64,
    pub divergences: u64,
    pub violations: u64,
    pub record_violations: u64,
}

/// What one op produced.
pub struct OpOut {
    /// Host seconds of the whole op.
    pub wall_s: f64,
    /// Seconds in `Network::build`, when the op calls it directly.
    pub build_s: Option<f64>,
    /// Host seconds spent simulating (run loops, summed over jobs).
    pub engine_s: f64,
    /// Completed simulation runs.
    pub runs: u64,
    /// Hash of every `RunResult` the op produced.
    pub fingerprint: u64,
    /// First validity check the op failed.
    pub failure: Option<String>,
    /// The run the protocol metrics are read from.
    pub primary: Option<RunResult>,
    pub jobs: Vec<Job>,
    /// The runs of every figure job (`paper_figures`).
    pub fig_runs: Vec<FigRuns>,
    /// Host time of every run, in op order (`paper_figures`).
    pub timings: Vec<RunTiming>,
    pub replays: Vec<ReplayTiming>,
}

/// The results of one figure's runs, and whether any broke an invariant.
pub struct FigRuns {
    pub fig: Fig,
    pub results: Vec<RunResult>,
    pub violated: bool,
}

fn fingerprint(results: &[&RunResult]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in results {
        format!("{r:?}").hash(&mut h);
    }
    h.finish()
}

/// Checks every run of an op must pass: some beacon window succeeded and,
/// for SSTSP, the network met the 25 µs criterion.
pub fn check_run(label: &str, r: &RunResult) -> Option<String> {
    if r.tx_successes == 0 {
        return Some(format!("{label}: no beacon window succeeded"));
    }
    if r.protocol == ProtocolKind::Sstsp.name() && r.sync_latency_s.is_none() {
        return Some(format!("{label}: never met the 25 µs criterion"));
    }
    None
}

/// Mesh runs: every domain must end holding a reference, each distinct.
pub fn check_domains(label: &str, r: &RunResult) -> Option<String> {
    let Some(report) = &r.domain_report else {
        return Some(format!("{label}: mesh run has no domain report"));
    };
    let mut refs = Vec::with_capacity(report.len());
    for d in report {
        match d.final_reference {
            Some(id) if !refs.contains(&id) => refs.push(id),
            Some(id) => {
                return Some(format!(
                    "{label}: domain {} shares reference {id} with another domain",
                    d.domain
                ))
            }
            None => {
                return Some(format!(
                    "{label}: domain {} ends without a reference",
                    d.domain
                ))
            }
        }
    }
    None
}

/// Run one op of the workload.
pub fn run_op(w: Workload, inputs: &Inputs, pool: &ThreadPool, tr: &Tracer, op: u64) -> OpOut {
    tr.time("op", None, op, |span| match inputs {
        Inputs::Engine(cfg) => engine_op(w, cfg, tr, span, op),
        Inputs::Paper(seed) => paper_op(*seed, pool, tr, span, op),
        Inputs::Hostile(cases) => hostile_op(cases, tr, span, op),
    })
}

fn engine_op(
    w: Workload,
    cfg: &ScenarioConfig,
    tr: &Tracer,
    span: Option<usize>,
    op: u64,
) -> OpOut {
    let t0 = Instant::now();
    let net = tr.time("sstsp.Network::build", span, op, |_| Network::build(cfg));
    let t1 = Instant::now();
    let r = tr.time("sstsp.Network::run", span, op, |_| net.run());
    let t2 = Instant::now();
    let mut failure = check_run(w.name(), &r);
    if failure.is_none() && w == Workload::MeshBridged {
        failure = check_domains(w.name(), &r);
    }
    OpOut {
        wall_s: (t2 - t0).as_secs_f64(),
        build_s: Some((t1 - t0).as_secs_f64()),
        engine_s: (t2 - t1).as_secs_f64(),
        runs: 1,
        fingerprint: fingerprint(&[&r]),
        failure,
        primary: Some(r),
        jobs: Vec::new(),
        fig_runs: Vec::new(),
        timings: Vec::new(),
        replays: Vec::new(),
    }
}

/// Invariant checker that also times the host between BP boundaries, so a
/// run's cost can be compared BP by BP across ops.
struct TimedChecker {
    checker: InvariantChecker,
    last: Instant,
    bp_s: Vec<f32>,
}

impl EngineHook for TimedChecker {
    fn active(&self) -> bool {
        self.checker.active()
    }

    fn capabilities(&self) -> HookCaps {
        self.checker.capabilities()
    }

    fn on_bp_batch(&mut self, batch: &BpBatch<'_>) {
        self.checker.on_bp_batch(batch);
    }

    fn on_run_start(&mut self, scenario: &ScenarioConfig, anchors: &AnchorRegistry) {
        self.checker.on_run_start(scenario, anchors);
        self.last = Instant::now();
    }

    fn on_bp_start(&mut self, bp: u64, t0: SimTime, actions: &mut Vec<FaultAction>) {
        self.checker.on_bp_start(bp, t0, actions);
    }

    fn on_window(&mut self, bp: u64, live: &WindowOutcome) -> Option<WindowOutcome> {
        self.checker.on_window(bp, live)
    }

    fn on_beacon_tx(&mut self, bp: u64, src: NodeId, t_tx: SimTime) {
        self.checker.on_beacon_tx(bp, src, t_tx);
    }

    fn on_delivery(&mut self, ctx: &DeliveryCtx, payload: &mut BeaconPayload) -> DeliveryFate {
        self.checker.on_delivery(ctx, payload)
    }

    fn post_delivery(&mut self, obs: &DeliveryObs<'_>) {
        self.checker.post_delivery(obs);
    }

    fn on_bp_end(&mut self, view: &BpView<'_>) {
        self.checker.on_bp_end(view);
        let now = Instant::now();
        self.bp_s.push((now - self.last).as_secs_f32());
        self.last = now;
    }

    fn on_run_end(&mut self, result: &RunResult) {
        self.checker.on_run_end(result);
    }
}

/// Host time of one invariant-checked run: its build, each BP, and the
/// rest of the run outside the BPs.
#[derive(Debug, Clone)]
pub struct RunTiming {
    pub build_s: f64,
    pub rest_s: f64,
    pub bp_s: Vec<f32>,
}

impl RunTiming {
    /// Keep, part by part, the faster of `self` and `other` (a timing of
    /// the same run in another op).
    pub fn merge_min(&mut self, other: &RunTiming) {
        self.build_s = self.build_s.min(other.build_s);
        self.rest_s = self.rest_s.min(other.rest_s);
        for (a, b) in self.bp_s.iter_mut().zip(&other.bp_s) {
            *a = a.min(*b);
        }
    }

    pub fn total_s(&self) -> f64 {
        self.build_s + self.rest_s + self.bp_s.iter().map(|&x| f64::from(x)).sum::<f64>()
    }
}

/// What `sstsp::run_checked` does, with the build and every BP timed and
/// the violations returned instead of panicked on.
fn checked_run(
    cfg: &ScenarioConfig,
    tr: &Tracer,
    span: Option<usize>,
    op: u64,
) -> (RunResult, Vec<Violation>, RunTiming) {
    let t0 = Instant::now();
    let net = tr.time("sstsp.Network::build", span, op, |_| Network::build(cfg));
    let t1 = Instant::now();
    let mut hook = TimedChecker {
        checker: InvariantChecker::for_scenario(cfg),
        last: t1,
        bp_s: Vec::with_capacity(cfg.total_bps() as usize),
    };
    let r = tr.time("sstsp.Network::run_with_hook", span, op, |_| {
        net.run_with_hook(&mut hook)
    });
    let run_s = t1.elapsed().as_secs_f64();
    let bps_s: f64 = hook.bp_s.iter().map(|&x| f64::from(x)).sum();
    let timing = RunTiming {
        build_s: (t1 - t0).as_secs_f64(),
        rest_s: run_s - bps_s,
        bp_s: hook.bp_s,
    };
    (r, hook.checker.into_violations(), timing)
}

/// The runs of one figure job.
struct FigOut {
    fig: Fig,
    busy_s: f64,
    runs: Vec<(RunResult, Vec<Violation>, RunTiming)>,
}

fn paper_op(seed: u64, pool: &ThreadPool, tr: &Tracer, span: Option<usize>, op: u64) -> OpOut {
    let t0 = Instant::now();
    let outs: Vec<FigOut> = pool.install(|| {
        Fig::JOB_ORDER
            .par_iter()
            .map(|&fig| {
                let name = [
                    "experiments.fig1",
                    "experiments.fig2",
                    "experiments.fig3",
                    "experiments.fig4",
                ][fig.index()];
                let t = Instant::now();
                let runs = tr.time(name, span, op, |jspan| {
                    fig_configs(fig, seed)
                        .iter()
                        .map(|cfg| checked_run(cfg, tr, jspan, op))
                        .collect()
                });
                FigOut {
                    fig,
                    busy_s: t.elapsed().as_secs_f64(),
                    runs,
                }
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut failure = None;
    let mut jobs = Vec::new();
    let mut fig_runs = Vec::new();
    let mut timings = Vec::new();
    for FigOut { fig, busy_s, runs } in outs {
        jobs.push(Job { fig, busy_s });
        let label = format!("fig{}", fig.index() + 1);
        let mut results = Vec::new();
        let mut violated = false;
        for (r, violations, timing) in runs {
            failure = failure.or_else(|| checked_failure(&label, seed, &r, &violations));
            violated |= !violations.is_empty();
            results.push(r);
            timings.push(timing);
        }
        fig_runs.push(FigRuns {
            fig,
            results,
            violated,
        });
    }
    let results: Vec<&RunResult> = fig_runs.iter().flat_map(|f| &f.results).collect();
    let (runs, fingerprint) = (results.len() as u64, fingerprint(&results));
    let primary = fig_runs
        .iter()
        .find(|f| f.fig == Fig::F2)
        .map(|f| f.results[0].clone());
    OpOut {
        wall_s,
        build_s: Some(timings.iter().map(|t| t.build_s).sum()),
        engine_s: jobs.iter().map(|j| j.busy_s).sum(),
        runs,
        fingerprint,
        failure,
        primary,
        jobs,
        fig_runs,
        timings,
        replays: Vec::new(),
    }
}

/// The first check an invariant-checked run fails: a violation, else
/// `check_run`.
fn checked_failure(
    label: &str,
    seed: u64,
    r: &RunResult,
    violations: &[Violation],
) -> Option<String> {
    violations
        .first()
        .map(|v| {
            format!(
                "{label}: {} invariant violations in {} N={} seed={seed}, first {v}",
                violations.len(),
                r.protocol,
                r.n_nodes
            )
        })
        .or_else(|| check_run(label, r))
}

/// The first check one figure's runs at `seed` fail, as a `paper_figures`
/// op checks them.
pub fn check_fig(fig: Fig, seed: u64) -> Option<String> {
    let label = format!("fig{}", fig.index() + 1);
    let off = Tracer::new(false);
    fig_configs(fig, seed).iter().find_map(|cfg| {
        let (r, violations, _) = checked_run(cfg, &off, None, 0);
        checked_failure(&label, seed, &r, &violations)
    })
}

/// Checks the benchmark's mirror of the figure configs (`fig_configs`, the
/// runs of a `paper_figures` op) against `sstsp::experiments`: each
/// figure's own run at `seed` must give the op's results, or panic on an
/// invariant violation where the op's checker found one. Returns one line
/// per figure that differs.
pub fn mirror_mismatches(seed: u64, op: &OpOut, pool: &ThreadPool) -> Vec<String> {
    let verdicts: Vec<Option<String>> = pool.install(|| {
        Fig::JOB_ORDER
            .par_iter()
            .map(|&fig| {
                let figure = catch_unwind(AssertUnwindSafe(|| fig.run(seed)));
                let agrees = match (op.fig_runs.iter().find(|f| f.fig == fig), figure) {
                    (Some(mine), Ok(runs)) => {
                        !mine.violated
                            && runs.len() == mine.results.len()
                            && runs
                                .iter()
                                .zip(&mine.results)
                                .all(|(a, b)| format!("{a:?}") == format!("{b:?}"))
                    }
                    (Some(mine), Err(_)) => mine.violated,
                    (None, _) => false,
                };
                let k = fig.index() + 1;
                (!agrees).then(|| {
                    format!("the fig{k} config mirror does not reproduce experiments::fig{k}")
                })
            })
            .collect()
    });
    verdicts.into_iter().flatten().collect()
}

fn hostile_op(cases: &[FuzzCase], tr: &Tracer, span: Option<usize>, op: u64) -> OpOut {
    let t0 = Instant::now();
    let mut failure = None;
    let mut results = Vec::new();
    let mut replays = Vec::new();
    for case in cases {
        let label = format!("case n={}", case.n);
        tr.time("faults.case", span, op, |cspan| {
            let t = Instant::now();
            let rec = tr.time("faults.run_case_traced", cspan, op, |_| {
                run_case_traced(case)
            });
            let record_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let text = tr.time("faults.to_replayable_jsonl", cspan, op, |_| {
                to_replayable_jsonl(case, &rec.events).expect("trace encodes")
            });
            let encode_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let schedule = tr.time("faults.RecordedSchedule::parse", cspan, op, |_| {
                RecordedSchedule::parse(&text)
            });
            let parse_s = t.elapsed().as_secs_f64();
            let schedule = match schedule {
                Ok(s) => s,
                Err(e) => {
                    failure = failure
                        .take()
                        .or(Some(format!("{label}: trace does not parse: {e}")));
                    return;
                }
            };
            let t = Instant::now();
            let rep = tr.time("faults.replay", cspan, op, |_| replay(&schedule));
            let replay_s = t.elapsed().as_secs_f64();
            if failure.is_none() {
                failure = check_run(&label, &rec.result)
                    .or_else(|| {
                        (!rec.violations.is_empty()).then(|| {
                            format!(
                                "{label}: recording has {} invariant violations",
                                rec.violations.len()
                            )
                        })
                    })
                    .or_else(|| {
                        (!rep.violations.is_empty()).then(|| {
                            format!(
                                "{label}: replay has {} invariant violations",
                                rep.violations.len()
                            )
                        })
                    })
                    .or_else(|| {
                        (!rep.is_faithful()).then(|| {
                            format!(
                                "{label}: replay not faithful, first divergence {:?}",
                                rep.first_divergence()
                            )
                        })
                    });
            }
            replays.push(ReplayTiming {
                record_s,
                encode_s,
                parse_s,
                replay_s,
                events: rec.events.len() as u64,
                bytes: text.len() as u64,
                divergences: rep.divergences.len() as u64,
                violations: rep.violations.len() as u64,
                record_violations: rec.violations.len() as u64,
            });
            results.push(rec.result);
            results.push(rep.result);
        });
    }
    let refs: Vec<&RunResult> = results.iter().collect();
    OpOut {
        wall_s: t0.elapsed().as_secs_f64(),
        build_s: None,
        engine_s: replays.iter().map(|r| r.record_s + r.replay_s).sum(),
        runs: results.len() as u64,
        fingerprint: fingerprint(&refs),
        failure,
        primary: results.into_iter().next(),
        jobs: Vec::new(),
        fig_runs: Vec::new(),
        timings: Vec::new(),
        replays,
    }
}

/// Seconds in `Network::build` for every scenario of one op. Each built
/// network is dropped unrun.
pub fn measure_setup(inputs: &Inputs) -> f64 {
    inputs
        .op_scenarios()
        .iter()
        .map(|cfg| {
            let t = Instant::now();
            let net = Network::build(cfg);
            let dt = t.elapsed().as_secs_f64();
            drop(net);
            dt
        })
        .sum()
}
