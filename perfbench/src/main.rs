//! End-to-end and per-layer benchmark of the SSTSP simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ibss_large|mesh_bridged|paper_figures|hostile_replay|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload's inputs are made from `--seed` alone. One untimed
//! warm-up op runs with telemetry recording on and is checked (beacons
//! delivered, µTESLA verified, synchronized, invariants held); then ops
//! repeat for `--seconds` with telemetry off, each checked again and
//! compared with the warm-up's results. `paper_figures` also checks, once
//! per run, that its mirror of the figure configs reproduces the figures.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced ops (telemetry on, spans around every call into the
//! simulator), runs the per-layer probes and the self-test, and prints the
//! per-layer metrics and the signed attribution table. The last line of stdout is one JSON object.
//! Spans and a result file with host metadata go to `.perfbench_out/`.

mod host;
mod probes;
mod spans;
mod stats;
mod workloads;

use rayon::ThreadPool;
use spans::Tracer;
use sstsp::{Network, RunResult};
use sstsp_telemetry::{self as telemetry, Snapshot};
use stats::{median, tail};
use std::time::Instant;
use workloads::{Fig, Inputs, OpOut, RunTiming, Workload};

const USAGE: &str =
    "usage: perfbench --workload <ibss_large|mesh_bridged|paper_figures|hostile_replay|all> \
[--seed N] [--seconds S] [--trace 0|1]";
const DEFAULT_SEED: u64 = 2006;
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count, percentile or "not exercised" remark for the table.
    note: String,
    /// Whether the metric goes into the JSON result (the metrics listed in
    /// `BENCHMARK.json`); the others are printed only.
    in_json: bool,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
        in_json: true,
    }
}

fn printed_only(m: Metric) -> Metric {
    Metric {
        in_json: false,
        ..m
    }
}

/// Everything one workload run reports.
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Checks of the benchmark itself (not of an op) that did not hold.
    broken: Vec<String>,
    metrics: Vec<Metric>,
    /// Host seconds of every untraced op, in run order.
    op_s: Vec<f64>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2)
        }
    };
    // The figures of `sstsp::experiments` report invariant violations by
    // panicking; the mirror check catches those, so keep the report to one
    // line.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        eprintln!(
            "perfbench: caught panic: {}",
            msg.lines().next().unwrap_or("")
        );
    }));
    let threads = host::pool_threads();
    println!("{}", host::metadata(threads));
    let workloads = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::parse(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload '{}'\n{USAGE}", args.workload);
                std::process::exit(2)
            }
        }
    };
    let pool = ThreadPool::new(threads);
    let _ = std::fs::create_dir_all(OUT_DIR);
    let mut reports = Vec::new();
    for w in workloads {
        let report = run_workload(w, &args, &pool);
        print_report(&report, &args);
        write_result(&report, &args, threads);
        reports.push(report);
    }
    println!("{}", final_json(&reports));
}

/// Counter checks on the warm-up op: a beacon reached a receiver and a
/// µTESLA verification succeeded (every workload runs SSTSP).
fn check_counters(snap: &Snapshot) -> Option<String> {
    if snap.counter("engine.beacon.rx_delivered") == 0 {
        return Some("delivered no beacon".to_string());
    }
    if snap.counter("mutesla.verify.ok") == 0 {
        return Some("no µTESLA verification succeeded".to_string());
    }
    None
}

/// Bookkeeping of checked ops.
struct Tally<'a> {
    reference: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    workload: &'a str,
}

impl Tally<'_> {
    fn record(&mut self, op: u64, out: &OpOut) {
        self.record_failure(op, out.failure.clone(), out.fingerprint);
    }

    fn record_failure(&mut self, op: u64, failure: Option<String>, fingerprint: u64) {
        self.attempted += 1;
        let failure = failure.or_else(|| {
            (fingerprint != self.reference)
                .then(|| "RunResult differs from the warm-up op with the same seed".to_string())
        });
        if let Some(f) = failure {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures
                    .push(format!("{} op {op}: {f}", self.workload));
            }
        }
    }
}

fn run_workload(w: Workload, args: &Args, pool: &ThreadPool) -> Report {
    let inputs = Inputs::new(w, args.seed);
    let node_bps = inputs.node_bps() as f64;
    // The paper figures run their jobs one after another. On a 2-vCPU host
    // the wall time of two concurrent jobs swung by 1.6× from run to run;
    // the pool's own scaling is measured by a per-layer probe batch.
    let serial;
    let op_pool = if w == Workload::PaperFigures {
        serial = ThreadPool::new(1);
        &serial
    } else {
        pool
    };
    let off = Tracer::new(false);
    let tracer = Tracer::new(args.trace);

    // Warm-up: untimed, telemetry on, checked on its counters too.
    let (warm, warm_snap) = {
        let _rec = telemetry::recording();
        let out = workloads::run_op(w, &inputs, op_pool, &off, 0);
        (out, telemetry::snapshot())
    };
    let mut tally = Tally {
        reference: warm.fingerprint,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        workload: w.name(),
    };
    // A benchmark-side check, not an op's: the configs `measure_setup`
    // builds must be the ones the figures run.
    let broken = match inputs {
        Inputs::Paper(seed) => workloads::mirror_mismatches(seed, &warm, pool),
        _ => Vec::new(),
    };
    let warm_failure = warm.failure.or_else(|| check_counters(&warm_snap));
    tally.record_failure(0, warm_failure, warm.fingerprint);
    let primary = warm.primary;

    // Timed ops. With tracing, untraced and traced ops alternate so the
    // tracing overhead is a ratio of neighbours.
    let mut plain: Vec<OpOut> = Vec::new();
    let mut traced: Vec<OpOut> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    // Per run of a `paper_figures` op, the fastest time of each part.
    let mut fastest: Vec<RunTiming> = Vec::new();
    let mut snap = Snapshot::default();
    let t0 = Instant::now();
    let mut op = 1u64;
    while t0.elapsed().as_secs_f64() < args.seconds || plain.is_empty() {
        let mut out = workloads::run_op(w, &inputs, op_pool, &off, op);
        tally.record(op, &out);
        out.primary = None;
        out.fig_runs.clear();
        if fastest.is_empty() {
            fastest = std::mem::take(&mut out.timings);
        }
        for (f, t) in fastest.iter_mut().zip(std::mem::take(&mut out.timings)) {
            f.merge_min(&t);
        }
        // Ops that build inside library calls get one separate timing of
        // the same builds, so set-up samples span the run like op times.
        setups.push(
            out.build_s
                .unwrap_or_else(|| workloads::measure_setup(&inputs)),
        );
        plain.push(out);
        op += 1;
        if args.trace {
            let _rec = telemetry::recording();
            let mut out = workloads::run_op(w, &inputs, op_pool, &tracer, op);
            snap = telemetry::snapshot();
            tally.record(op, &out);
            out.primary = None;
            out.fig_runs.clear();
            out.timings.clear();
            traced.push(out);
            op += 1;
        }
    }

    let best = if fastest.is_empty() {
        Best {
            op_s: plain.iter().map(|o| o.wall_s).fold(f64::INFINITY, f64::min),
            of: "fastest op",
        }
    } else {
        Best {
            op_s: fastest.iter().map(RunTiming::total_s).sum(),
            of: "fastest time of each BP",
        }
    };
    let mut metrics = end_to_end(
        &plain,
        &setups,
        &best,
        node_bps,
        inputs.op_scenarios().len(),
    );
    metrics.push(metric(
        "peak_rss_mib",
        host::peak_rss_mib(),
        "MiB",
        "VmHWM of the process so far",
    ));
    let fail_rate = tally.failed as f64 / tally.attempted as f64;
    let mut report = Report {
        workload: w,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        broken,
        metrics,
        op_s: plain.iter().map(|o| o.wall_s).collect(),
    };
    report.metrics.push(printed_only(metric(
        "fail_rate",
        fail_rate,
        "ratio",
        format!("{}/{} ops", report.failed, report.attempted),
    )));
    if args.trace {
        let runs = Runs {
            plain: &plain,
            traced: &traced,
            snap: &snap,
            primary: primary.as_ref(),
        };
        // A traced run prints its end-to-end figures but reports the
        // per-layer ones.
        for m in &mut report.metrics {
            m.in_json = false;
        }
        let layer = per_layer(w, &inputs, &runs, &tracer, pool, args.seed);
        report.metrics.extend(layer);
        let spans = tracer.spans();
        print_self_times(&spans);
        let path = format!("{OUT_DIR}/spans-{}-seed{}.jsonl", w.name(), args.seed);
        let _ = std::fs::write(path, spans::to_jsonl(&spans));
        println!();
        if !self_test() {
            println!("self-test: a known-bad input was not reported as failed (see above)");
        }
    }
    report
}

/// The host time an op takes on an unloaded machine. Host load only ever
/// slows an op, and every op does the same work (its results are checked
/// equal), so the fastest op estimates it. An op of long runs is estimated
/// part by part instead: the sum, over every BP of every run (and each
/// run's build and its time outside the BPs), of the fastest time that
/// part took in any op, since the host's slow phases last longer than the
/// op's short parts but not always longer than the op.
struct Best {
    op_s: f64,
    /// What was summed, for the output.
    of: &'static str,
}

/// The end-to-end metrics of untraced ops; `setups` holds one set-up time
/// (seconds in `Network::build` for `builds` builds) per op. Set-up, like
/// the throughputs, is the unloaded estimate: the fastest op's.
fn end_to_end(
    ops: &[OpOut],
    setups: &[f64],
    best: &Best,
    node_bps: f64,
    builds: usize,
) -> Vec<Metric> {
    let n = ops.len();
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let busy: f64 = walls.iter().sum();
    let runs: u64 = ops.iter().map(|o| o.runs).sum();
    let t = tail(&walls);
    let tail_note = if t.percentile < 100.0 {
        format!("p{:.1}, n={}", t.percentile, t.samples)
    } else {
        format!(
            "max (fewer than {} samples), n={}",
            stats::TAIL_MIN_SAMPLES,
            t.samples
        )
    };
    let setup_note = format!(
        "fastest of {} ops × {builds} builds; median {:.6}",
        setups.len(),
        median(setups)
    );
    // The throughputs are taken from the unloaded estimate; the run's mean
    // is printed beside them.
    let per_op_runs = runs as f64 / n as f64;
    vec![
        metric(
            "node_bp_per_s",
            node_bps / best.op_s,
            "1/s",
            format!(
                "{} of {n} ops; mean {:.0}",
                best.of,
                node_bps * n as f64 / busy
            ),
        ),
        metric(
            "runs_per_s",
            per_op_runs / best.op_s,
            "1/s",
            format!("{} of {n} ops; mean {:.3}", best.of, runs as f64 / busy),
        ),
        printed_only(metric("op_s_p50", median(&walls), "s", format!("n={n}"))),
        printed_only(metric("op_s_tail", t.value, "s", tail_note)),
        metric(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
            setup_note,
        ),
    ]
}

/// Signed attribution of the untraced run time to the probed layers.
struct Attribution {
    run_ns: f64,
    rows: Vec<(&'static str, u64, f64)>,
}

impl Attribution {
    fn attributed_ns(&self) -> f64 {
        self.rows.iter().map(|(_, c, ns)| *c as f64 * ns).sum()
    }

    fn print(&self, node_bps: f64) {
        println!(
            "attribution (count × probe cost per call, against the measured untraced run time):"
        );
        println!(
            "  {:<28} {:>14} {:>12} {:>14} {:>10}",
            "layer call", "count", "ns/call", "ms", "ns/node-BP"
        );
        for (name, count, ns) in &self.rows {
            let total = *count as f64 * ns;
            println!(
                "  {name:<28} {count:>14} {ns:>12.1} {:>14.3} {:>10.2}",
                total / 1e6,
                total / node_bps
            );
        }
        let attributed = self.attributed_ns();
        println!(
            "  {:<28} {:>14} {:>12} {:>14.3} {:>10.2}",
            "Σ attributed",
            "",
            "",
            attributed / 1e6,
            attributed / node_bps
        );
        println!(
            "  {:<28} {:>14} {:>12} {:>14.3} {:>10.2}",
            "measured run",
            "",
            "",
            self.run_ns / 1e6,
            self.run_ns / node_bps
        );
        let rem = self.run_ns - attributed;
        println!(
            "  {:<28} {:>14} {:>12} {:>+14.3} {:>+10.2}",
            "remainder (signed)",
            "",
            "",
            rem / 1e6,
            rem / node_bps
        );
    }
}

/// What the timed loop of a traced run measured.
struct Runs<'a> {
    plain: &'a [OpOut],
    traced: &'a [OpOut],
    /// Telemetry of the last traced op.
    snap: &'a Snapshot,
    /// The warm-up op's primary run.
    primary: Option<&'a RunResult>,
}

fn per_layer(
    w: Workload,
    inputs: &Inputs,
    runs: &Runs<'_>,
    tr: &Tracer,
    pool: &ThreadPool,
    seed: u64,
) -> Vec<Metric> {
    let Runs {
        plain,
        traced,
        snap,
        primary,
    } = *runs;
    let threads = pool.current_num_threads();
    let cfg = inputs.probe_scenario();
    let node_bps = inputs.node_bps() as f64;
    let c = |k: &str| snap.counter(k);
    let na = "0 = not exercised by this workload";
    let mut m = Vec::new();

    // crypto
    let crypto = probes::crypto(&cfg, tr);
    let verify_reject = c("mutesla.verify.wrong_interval")
        + c("mutesla.verify.bad_key")
        + c("mutesla.verify.forged_prev");
    let horizon = format!(
        "m={}, horizon {} BPs",
        cfg.protocol_config.m,
        cfg.total_bps()
    );
    m.push(metric(
        "crypto.chain_step_ns",
        crypto.chain_step_ns,
        "ns",
        "sstsp_crypto::chain::chain_step",
    ));
    m.push(metric(
        "crypto.hmac128_ns",
        crypto.hmac128_ns,
        "ns",
        format!(
            "hmac_sha256_128 over a {}-byte secured frame",
            probes::SECURED_FRAME_BYTES
        ),
    ));
    m.push(metric(
        "crypto.verify_ns",
        crypto.verify_ns,
        "ns",
        format!("MuTeslaVerifier::observe, {horizon}"),
    ));
    m.push(metric(
        "crypto.sign_ns",
        crypto.sign_ns,
        "ns",
        format!("MuTeslaSigner::sign amortised, {horizon}"),
    ));
    m.push(metric(
        "crypto.hashes_per_verify",
        crypto.hashes_per_verify,
        "count",
        "exact, from hash_count()",
    ));
    m.push(metric(
        "crypto.verify_ok",
        c("mutesla.verify.ok") as f64,
        "count",
        "per op",
    ));
    m.push(metric(
        "crypto.verify_reject",
        verify_reject as f64,
        "count",
        "per op",
    ));

    // wireless
    let capture = probes::capture(&cfg, tr);
    let wireless = probes::wireless(&cfg, &capture.capture.txs, tr);
    let (succ, coll, silent, jammed) = (
        c("engine.window.success"),
        c("engine.window.collision"),
        c("engine.window.silent"),
        c("engine.window.jammed"),
    );
    let attempted_windows = succ + coll + jammed;
    m.push(metric(
        "wireless.resolve_ns",
        wireless.resolve_ns,
        "ns",
        format!("per window, {} captured windows replayed", wireless.windows),
    ));
    m.push(metric(
        "wireless.deliver_batch_ns_per_rx",
        wireless.deliver_batch_ns_per_rx,
        "ns",
        "",
    ));
    m.push(metric(
        "wireless.window_success",
        succ as f64,
        "count",
        "per op",
    ));
    m.push(metric(
        "wireless.window_collision",
        coll as f64,
        "count",
        "per op",
    ));
    m.push(metric(
        "wireless.window_silent",
        silent as f64,
        "count",
        "per op",
    ));
    m.push(metric(
        "wireless.window_success_ratio",
        if attempted_windows > 0 {
            succ as f64 / attempted_windows as f64
        } else {
            0.0
        },
        "ratio",
        "successful / windows with a transmission",
    ));
    m.push(metric(
        "wireless.rx_delivered",
        c("engine.beacon.rx_delivered") as f64,
        "count",
        "per op",
    ));
    m.push(metric(
        "wireless.rx_lost",
        c("engine.beacon.rx_lost") as f64,
        "count",
        "per op",
    ));

    // clocks
    let local_us_ns = probes::clocks(&cfg, tr);
    m.push(metric(
        "clocks.local_us_ns",
        local_us_ns,
        "ns",
        "n evaluations per BP",
    ));

    // simcore
    let rx_attempt = c("engine.beacon.rx_attempt");
    let draws = c("engine.rng.chan_draws") + c("engine.rng.jitter_draws");
    m.push(metric(
        "simcore.events",
        snap.gauge("engine.sim.events").unwrap_or(0) as f64,
        "count",
        "largest run of the op",
    ));
    m.push(metric(
        "simcore.queue_peak",
        snap.gauge("engine.queue.peak_pending").unwrap_or(0) as f64,
        "count",
        "largest run of the op",
    ));
    m.push(metric(
        "simcore.rng_draws_per_rx",
        if rx_attempt > 0 {
            draws as f64 / rx_attempt as f64
        } else {
            0.0
        },
        "ratio",
        "channel + jitter draws per receive attempt",
    ));

    // protocols
    for (name, key) in [
        ("protocols.accept", "sstsp.accept"),
        ("protocols.reject_guard", "sstsp.reject.guard"),
        ("protocols.reject_mutesla", "sstsp.reject.mutesla"),
        ("protocols.retarget", "sstsp.retarget"),
        ("protocols.election_won", "sstsp.election.won"),
    ] {
        m.push(metric(name, c(key) as f64, "count", "per op"));
    }
    let primary_note = match w {
        Workload::PaperFigures => "Fig. 2 run",
        Workload::HostileReplay => "recorded jamref case",
        _ => "the op's run",
    };
    m.push(metric(
        "protocols.sync_latency_s",
        primary.and_then(|r| r.sync_latency_s).unwrap_or(0.0),
        "s",
        primary_note,
    ));
    m.push(metric(
        "protocols.steady_error_us",
        primary.and_then(|r| r.steady_error_us).unwrap_or(0.0),
        "us",
        primary_note,
    ));

    // attacks, faults and trace encode/parse: the hostile workload's own
    // ops, else one hostile-replay op as a probe.
    let hostile_probe;
    let (hostile_ops, hostile_snap, hostile_note) = if w == Workload::HostileReplay {
        (plain, snap.clone(), "per op")
    } else {
        let hostile = Inputs::new(Workload::HostileReplay, seed);
        let (op, hs) = tr.time("probe.hostile_replay", None, 0, |_| {
            let _rec = telemetry::recording();
            let op = workloads::run_op(Workload::HostileReplay, &hostile, pool, tr, 0);
            (op, telemetry::snapshot())
        });
        if let Some(f) = &op.failure {
            println!("hostile_replay probe: {f}");
        }
        hostile_probe = op;
        (std::slice::from_ref(&hostile_probe), hs, "probe op")
    };
    m.push(metric(
        "attacks.campaign_tx",
        hostile_snap.counter("campaign.tx") as f64,
        "count",
        hostile_note,
    ));
    m.push(metric(
        "attacks.campaign_collisions",
        hostile_snap.counter("campaign.collisions") as f64,
        "count",
        hostile_note,
    ));

    // core
    let run_ns = median(&plain.iter().map(|o| o.engine_s * 1e9).collect::<Vec<_>>());
    let bps: u64 = inputs.op_scenarios().iter().map(|c| c.total_bps()).sum();
    let attribution = Attribution {
        run_ns,
        rows: vec![
            (
                "crypto.verify",
                c("mutesla.verify.ok") + verify_reject,
                crypto.verify_ns,
            ),
            ("crypto.sign", c("mutesla.sign"), crypto.sign_ns),
            // One resolution per BP, whatever the number of domains.
            ("wireless.resolve", bps, wireless.resolve_ns),
            (
                "wireless.deliver_batch",
                rx_attempt,
                wireless.deliver_batch_ns_per_rx,
            ),
            ("clocks.local_us", node_bps as u64, local_us_ns),
        ],
    };
    let checker_reps = if w == Workload::PaperFigures { 1 } else { 2 };
    let checker_share = probes::checker_share(&cfg, checker_reps, tr);
    let pairs: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| (1.0 - p.wall_s / t.wall_s) * 100.0)
        .collect();
    m.push(metric(
        "core.run_ns_per_node_bp",
        run_ns / node_bps,
        "ns",
        "simulation time per station-BP, untraced ops",
    ));
    let bp_note = if cfg.campaign.is_some() || matches!(w, Workload::HostileReplay) {
        "between on_bp_end calls (slow path)"
    } else {
        "between on_bp_batch calls"
    };
    m.push(metric("core.bp_ns_p50", capture.bp_ns_p50, "ns", bp_note));
    m.push(metric("core.bp_ns_p99", capture.bp_ns_p99, "ns", bp_note));
    m.push(metric(
        "core.path_fast",
        c("engine.path.fast") as f64,
        "count",
        "runs per op",
    ));
    m.push(metric(
        "core.path_slow",
        c("engine.path.slow") as f64,
        "count",
        "runs per op",
    ));
    m.push(metric(
        "core.checker_share",
        checker_share,
        "ratio",
        "1 − run ÷ run with InvariantChecker, probe scenario",
    ));
    m.push(metric(
        "core.unattributed_ns_per_node_bp",
        (run_ns - attribution.attributed_ns()) / node_bps,
        "ns",
        "signed",
    ));
    m.push(metric(
        "core.trace_overhead_pct",
        median(&pairs),
        "%",
        format!(
            "traced vs untraced node_bp_per_s, median of {} pairs",
            pairs.len()
        ),
    ));

    // experiments: the paper workload's own (serial) batches, else the
    // probe batch; rayon: one paper-figures batch on the benchmark's pool.
    let paper = Inputs::new(Workload::PaperFigures, seed);
    let probe_batch = tr.time("probe.experiments", None, 0, |_| {
        workloads::run_op(Workload::PaperFigures, &paper, pool, tr, 0)
    });
    if let Some(f) = &probe_batch.failure {
        println!("experiments probe: {f}");
    }
    let (batches, batch_note) = if w == Workload::PaperFigures {
        (plain, "per op, serial")
    } else {
        (std::slice::from_ref(&probe_batch), "probe batch")
    };
    for fig in [Fig::F1, Fig::F2, Fig::F3, Fig::F4] {
        let name = [
            "experiments.fig1_s",
            "experiments.fig2_s",
            "experiments.fig3_s",
            "experiments.fig4_s",
        ][fig.index()];
        let times: Vec<f64> = batches
            .iter()
            .flat_map(|o| &o.jobs)
            .filter(|j| j.fig == fig)
            .map(|j| j.busy_s)
            .collect();
        m.push(metric(
            name,
            median(&times),
            "s",
            format!("median job time, n={}, {batch_note}", times.len()),
        ));
    }
    let busy: f64 = probe_batch.jobs.iter().map(|j| j.busy_s).sum();
    m.push(metric(
        "rayon.jobs",
        probe_batch.jobs.len() as f64,
        "count",
        "probe batch",
    ));
    m.push(metric(
        "rayon.pool_efficiency",
        busy / (threads as f64 * probe_batch.wall_s),
        "ratio",
        format!("Σ job busy ÷ ({threads} threads × batch wall), probe batch"),
    ));

    // telemetry and faults
    let per_op = |f: fn(&workloads::ReplayTiming) -> f64| {
        median(
            &hostile_ops
                .iter()
                .map(|o| o.replays.iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let events = per_op(|r| r.events as f64);
    m.push(metric(
        "telemetry.encode_ns_per_event",
        per_op(|r| r.encode_s) * 1e9 / events,
        "ns",
        format!("to_replayable_jsonl, {hostile_note}"),
    ));
    m.push(metric(
        "telemetry.parse_ns_per_event",
        per_op(|r| r.parse_s) * 1e9 / events,
        "ns",
        format!("RecordedSchedule::parse, {hostile_note}"),
    ));
    m.push(metric(
        "telemetry.trace_events",
        events,
        "count",
        hostile_note,
    ));
    m.push(metric(
        "telemetry.trace_bytes",
        per_op(|r| r.bytes as f64),
        "count",
        hostile_note,
    ));
    if w == Workload::PaperFigures {
        m.push(metric("telemetry.recording_overhead_pct", 0.0, "%", na));
    } else {
        m.push(metric(
            "telemetry.recording_overhead_pct",
            probes::recording_overhead_pct(&cfg, 3, tr),
            "%",
            "passive TraceRecorder vs plain run, probe scenario",
        ));
    }
    m.push(metric(
        "faults.record_s",
        per_op(|r| r.record_s),
        "s",
        hostile_note,
    ));
    m.push(metric(
        "faults.replay_s",
        per_op(|r| r.replay_s),
        "s",
        hostile_note,
    ));
    m.push(metric(
        "faults.divergences",
        per_op(|r| r.divergences as f64),
        "count",
        hostile_note,
    ));
    m.push(metric(
        "faults.violations",
        per_op(|r| (r.violations + r.record_violations) as f64),
        "count",
        hostile_note,
    ));

    println!();
    attribution.print(node_bps);
    m
}

fn print_self_times(spans: &[spans::Span]) {
    println!("span self time (traced ops and probes):");
    println!(
        "  {:<40} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in spans::self_times(spans) {
        println!(
            "  {name:<40} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn print_report(r: &Report, args: &Args) {
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!();
    println!(
        "== {} ({kind}, seed {}, {} s): {} ops attempted, {} failed",
        r.workload.name(),
        args.seed,
        args.seconds,
        r.attempted,
        r.failed
    );
    for m in &r.metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for f in &r.failures {
        println!("  FAILED {f}");
    }
    for b in &r.broken {
        println!("  BROKEN {b}");
    }
}

fn write_result(r: &Report, args: &Args, threads: usize) {
    let path = format!(
        "{OUT_DIR}/result-{}-seed{}-trace{}.json",
        r.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{},\"result\":{},\"op_s\":[{}]}}\n",
        r.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host::metadata_json(threads),
        json_object(std::slice::from_ref(r), false),
        r.op_s.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
    );
    let _ = std::fs::write(path, body);
}

/// The result object. With several workloads, metric names carry the
/// workload as a prefix.
fn json_object(reports: &[Report], prefixed: bool) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut correct = failed == 0;
    let mut fields = Vec::new();
    for r in reports {
        correct &= r.broken.is_empty();
        for m in r.metrics.iter().filter(|m| m.in_json) {
            correct &= m.value.is_finite();
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let name = if prefixed {
                format!("{}.{}", r.workload.name(), m.name)
            } else {
                m.name.clone()
            };
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

fn final_json(reports: &[Report]) -> String {
    json_object(reports, reports.len() > 1)
}

/// Known-bad inputs, which the op checks must report as failed. Returns
/// whether every one of them was.
fn self_test() -> bool {
    println!("self-test (known-bad inputs; each must be reported FAILED):");
    let mut all_failed = true;
    let engine_cases = [
        (
            "n=5000 1 s single-hop (old engine_large point)",
            sstsp::ScenarioConfig::new(sstsp::ProtocolKind::Sstsp, 5000, 1.0, DEFAULT_SEED),
        ),
        (
            "bridged:4:25:12 60 s seed 2006",
            workloads::bridged_config(4, 25, 12, 60.0, DEFAULT_SEED),
        ),
        (
            "bridged:4:25:16 60 s seed 2006",
            workloads::bridged_config(4, 25, 16, 60.0, DEFAULT_SEED),
        ),
    ];
    for (label, cfg) in engine_cases {
        let (r, snap) = {
            let _rec = telemetry::recording();
            let r = Network::build(&cfg).run();
            (r, telemetry::snapshot())
        };
        let verdict = check_counters(&snap)
            .or_else(|| workloads::check_run("run", &r))
            .or_else(|| {
                cfg.topology
                    .and_then(|_| workloads::check_domains("run", &r))
            });
        let detail = format!(
            "{} beacons delivered, {} guard rejections",
            snap.counter("engine.beacon.rx_delivered"),
            r.guard_rejections
        );
        all_failed &= print_verdict(label, verdict, &detail);
    }
    // The defect that keeps `paper_figures` out of BENCHMARK.json.
    all_failed &= print_verdict(
        "Fig. 2 Fidelity::Paper seed 4",
        workloads::check_fig(Fig::F2, 4),
        "a known simulator defect",
    );
    all_failed
}

fn print_verdict(label: &str, verdict: Option<String>, detail: &str) -> bool {
    match verdict {
        Some(why) => {
            println!("  FAILED (as expected) {label}: {why}; {detail}");
            true
        }
        None => {
            println!("  PASSED (unexpected) {label}: the known defect no longer shows; {detail}");
            false
        }
    }
}
