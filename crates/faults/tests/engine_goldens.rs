//! Frozen engine goldens: a SHA-256 digest of every observable of a fixed
//! set of runs, pinned bit-for-bit.
//!
//! Each fixture's digest covers
//!
//! * the spread series (every sample's time and `f64` bits),
//! * every [`RunResult`] field (its `Debug` rendering — Rust prints floats
//!   round-trip exact, so equal text means equal bits),
//! * invariant violations and replay divergences, when the fixture has them,
//! * the trace JSONL bytes, when the fixture records a trace,
//! * the telemetry snapshot of the run's own recording session: counters,
//!   gauges and full distribution bins.
//!
//! The fixtures span every way the engine loop is driven: the golden
//! scenario shapes for all seven protocols, the large-n regime, every mesh
//! topology family, a fuzzer batch run plain and under the fault harness,
//! passive `TraceRecorder` capture, `run_checked`, record → replay (faithful
//! and with a mutated beacon schedule driving the window-override seam),
//! the coalition, Sybil and reference-slot-jammer campaigns, and fault
//! plans whose effects persist across BPs with nothing scheduled in them
//! (a latched jam, a burst-loss setting, a crash whose rejoin lands on an
//! otherwise quiet BP).
//!
//! Everything runs in one `#[test]`: telemetry recording is process-global,
//! so a concurrent engine run in this binary would leak into a fixture's
//! snapshot.
//!
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! cargo test --release -p sstsp-faults --test engine_goldens -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `DIGESTS`, saying in the commit why the
//! old values were wrong.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use sstsp::scenario::{CampaignKind, CampaignSpec, TopologySpec};
use sstsp::{
    run_checked, InvariantChecker, Network, ProtocolKind, RunResult, ScenarioConfig, TraceRecorder,
    Violation,
};
use sstsp_crypto::Sha256;
use sstsp_faults::fuzz::{random_campaign_case, random_case, random_mesh_case};
use sstsp_faults::{replay_trace, run_case, run_case_traced, to_replayable_jsonl, FuzzCase};
use sstsp_telemetry::{self as telemetry, TraceEvent};

/// Incremental digest of one fixture's observables. Every section is
/// length-prefixed and tagged, so no two different observable sets can
/// hash the same byte stream.
struct Digest(Sha256);

impl Digest {
    fn new() -> Self {
        Digest(Sha256::new())
    }

    fn section(&mut self, tag: &str, bytes: &[u8]) {
        self.0.update(&(tag.len() as u64).to_le_bytes());
        self.0.update(tag.as_bytes());
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    fn result(&mut self, r: &RunResult) {
        let mut series = Vec::with_capacity(r.spread.len() * 16);
        for (t, v) in r.spread.times().iter().zip(r.spread.values()) {
            series.extend_from_slice(&t.as_ps().to_le_bytes());
            series.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.section("spread", &series);
        self.section("result", format!("{r:?}").as_bytes());
    }

    fn violations(&mut self, v: &[Violation]) {
        self.section("violations", format!("{v:?}").as_bytes());
    }

    fn trace(&mut self, events: &[TraceEvent]) {
        let jsonl = telemetry::trace::to_jsonl(events).expect("trace encodes");
        self.section("trace", jsonl.as_bytes());
    }

    fn telemetry(&mut self, snap: &telemetry::Snapshot) {
        let mut text = String::new();
        for (k, v) in &snap.counters {
            text.push_str(&format!("counter {k}={v}\n"));
        }
        for (k, v) in &snap.gauges {
            text.push_str(&format!("gauge {k}={v}\n"));
        }
        for (k, h) in &snap.dists {
            text.push_str(&format!("dist {k}={h:?}\n"));
        }
        self.section("telemetry", text.as_bytes());
    }

    fn hex(self) -> String {
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// Run `f` inside a fresh telemetry session and fold the session's
/// snapshot into the digest after whatever `f` recorded.
fn recorded(f: impl FnOnce(&mut Digest)) -> String {
    let mut d = Digest::new();
    let _session = telemetry::recording();
    f(&mut d);
    d.telemetry(&telemetry::snapshot());
    d.hex()
}

fn plain(cfg: &ScenarioConfig) -> String {
    recorded(|d| d.result(&Network::build(cfg).run()))
}

fn traced(cfg: &ScenarioConfig) -> String {
    recorded(|d| {
        let mut tracer = TraceRecorder::new();
        let r = Network::build(cfg).run_with_hook(&mut tracer);
        d.result(&r);
        d.trace(&tracer.into_events());
    })
}

fn checked(cfg: &ScenarioConfig) -> String {
    recorded(|d| d.result(&run_checked(cfg)))
}

/// The invariant checker on its own, violations digested (for shapes
/// `run_checked` would reject).
fn checker(cfg: &ScenarioConfig) -> String {
    recorded(|d| {
        let mut checker = InvariantChecker::for_scenario(cfg);
        let r = Network::build(cfg).run_with_hook(&mut checker);
        d.result(&r);
        d.violations(checker.violations());
    })
}

fn harnessed(case: &FuzzCase) -> String {
    recorded(|d| {
        let out = run_case(case);
        d.result(&out.result);
        d.violations(&out.violations);
    })
}

fn harnessed_traced(case: &FuzzCase) -> String {
    recorded(|d| {
        let out = run_case_traced(case);
        d.result(&out.result);
        d.violations(&out.violations);
        d.trace(&out.events);
    })
}

/// Record `case` under the traced fault harness, optionally rewrite the
/// recording, then replay it and digest the replay report.
fn replayed(case: &FuzzCase, mutate: impl FnOnce(&mut Vec<TraceEvent>)) -> String {
    let mut events = run_case_traced(case).events;
    mutate(&mut events);
    let jsonl = to_replayable_jsonl(case, &events).expect("trace encodes");
    recorded(|d| {
        let report = replay_trace(&jsonl).expect("recorded trace parses");
        d.result(&report.result);
        d.violations(&report.violations);
        d.section(
            "divergences",
            format!("{:?}", report.divergences).as_bytes(),
        );
        d.section(
            "replayed",
            report.to_jsonl().expect("trace encodes").as_bytes(),
        );
    })
}

fn case(spec: &str) -> FuzzCase {
    spec.parse().expect("valid case spec")
}

fn golden(kind: ProtocolKind) -> ScenarioConfig {
    ScenarioConfig::new(kind, 8, 12.0, 7)
}

fn ablation() -> ScenarioConfig {
    let mut cfg = golden(ProtocolKind::Sstsp).with_m(4).with_l(2);
    cfg.ref_leaves_s = vec![6.0];
    cfg
}

fn mesh(n: u32, topology: TopologySpec) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, n, 12.0, 7)
        .with_l(3)
        .with_m(6);
    cfg.topology = Some(topology);
    cfg
}

fn bridged() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 13, 12.0, 7);
    cfg.topology = Some(TopologySpec::Bridged {
        domains: 2,
        cols: 3,
        rows: 2,
    });
    cfg
}

/// The differential suite's hostile shapes (single-hop n = 12, or the
/// 2-domain bridged mesh), shortened to 12 s.
fn hostile(kind: ProtocolKind, campaign: CampaignSpec, bridged_mesh: bool) -> ScenarioConfig {
    let mut cfg = if bridged_mesh {
        bridged()
    } else {
        ScenarioConfig::new(ProtocolKind::Sstsp, 12, 12.0, 7)
    };
    cfg.protocol = kind;
    cfg.campaign = Some(campaign);
    cfg
}

const COALITION: CampaignSpec = CampaignSpec {
    kind: CampaignKind::Coalition {
        error_us: 800.0,
        delay_bps: 2,
    },
    attackers: 3,
    start_s: 5.0,
    end_s: 10.0,
};

const SYBIL: CampaignSpec = CampaignSpec {
    kind: CampaignKind::SybilFlood { error_us: 1500.0 },
    attackers: 2,
    start_s: 0.0,
    end_s: 8.0,
};

const JAMREF: CampaignSpec = CampaignSpec {
    kind: CampaignKind::RefSlotJam,
    attackers: 1,
    start_s: 4.0,
    end_s: 9.0,
};

/// Every fixture, in table order: `(name, digest)`.
fn fixtures() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut add = |name: &str, digest: String| out.push((name.to_string(), digest));

    // --- Golden scenario shapes, all protocols, and the large-n regime --
    for kind in [
        ProtocolKind::Tsf,
        ProtocolKind::Atsp,
        ProtocolKind::Tatsp,
        ProtocolKind::Satsf,
        ProtocolKind::Asp,
        ProtocolKind::Rk,
        ProtocolKind::Sstsp,
    ] {
        add(&format!("plain/{}", kind.name()), plain(&golden(kind)));
    }
    add("plain/ablation-refchange", plain(&ablation()));
    add(
        "plain/sstsp-n100",
        plain(&ScenarioConfig::new(ProtocolKind::Sstsp, 100, 20.0, 2006)),
    );
    add(
        "plain/sstsp-n1000",
        plain(&ScenarioConfig::new(ProtocolKind::Sstsp, 1000, 5.0, 2006)),
    );

    // --- Every topology family ------------------------------------------
    add("plain/line-12", plain(&mesh(12, TopologySpec::Line)));
    add("plain/ring-12", plain(&mesh(12, TopologySpec::Ring)));
    add(
        "plain/grid-4x3",
        plain(&mesh(12, TopologySpec::Grid { cols: 4, rows: 3 })),
    );
    add(
        "plain/rgg-16",
        plain(&mesh(
            16,
            TopologySpec::RandomDisk {
                side: 100.0,
                range: 45.0,
            },
        )),
    );
    add("plain/bridged-2:3:2", plain(&bridged()));
    let mut big_mesh = ScenarioConfig::new(ProtocolKind::Sstsp, 103, 6.0, 2006);
    big_mesh.topology = Some(TopologySpec::Bridged {
        domains: 4,
        cols: 5,
        rows: 5,
    });
    add("plain/bridged-4:5:5", plain(&big_mesh));

    // --- Passive trace capture ------------------------------------------
    add("traced/single-hop", traced(&golden(ProtocolKind::Sstsp)));
    add("traced/tsf", traced(&golden(ProtocolKind::Tsf)));
    add("traced/line-12", traced(&mesh(12, TopologySpec::Line)));
    add("traced/bridged-2:3:2", traced(&bridged()));

    // --- Invariant-checked runs (what every paper figure goes through) ---
    add("checked/single-hop", checked(&golden(ProtocolKind::Sstsp)));
    add("checked/ablation-refchange", checked(&ablation()));
    add("checked/line-12", checker(&mesh(12, TopologySpec::Line)));
    add("checked/bridged-2:3:2", checked(&bridged()));
    let mut churned = ScenarioConfig::new(ProtocolKind::Sstsp, 30, 20.0, 11);
    churned.churn = Some(sstsp::ChurnConfig {
        period_s: 4.0,
        fraction: 0.2,
        absence_s: 1.5,
    });
    add("checked/churn-n30", checker(&churned));

    // --- Fuzzer batch: plain and under the fault harness ----------------
    let mut rng = ChaCha12Rng::seed_from_u64(2006);
    for i in 0..6 {
        let c = random_case(&mut rng, 4);
        add(&format!("fuzz{i}/plain"), plain(&c.scenario()));
        add(&format!("fuzz{i}/harness"), harnessed(&c));
    }
    let mut mesh_rng = ChaCha12Rng::seed_from_u64(2606);
    for i in 0..3 {
        let c = random_mesh_case(&mut mesh_rng, 4);
        add(&format!("meshfuzz{i}/plain"), plain(&c.scenario()));
        add(&format!("meshfuzz{i}/harness"), harnessed(&c));
    }
    let mut campaign_rng = ChaCha12Rng::seed_from_u64(2006);
    for i in 0..3 {
        let c = random_campaign_case(&mut campaign_rng, 3);
        add(&format!("campaignfuzz{i}/harness"), harnessed_traced(&c));
    }

    // --- Campaigns -------------------------------------------------------
    for (name, spec, bridged_mesh) in [
        ("coalition", COALITION, false),
        ("sybil", SYBIL, true),
        ("jamref", JAMREF, true),
    ] {
        for kind in [ProtocolKind::Sstsp, ProtocolKind::Tsf] {
            let cfg = hostile(kind, spec, bridged_mesh);
            add(
                &format!("campaign/{name}/{}/plain", kind.name()),
                plain(&cfg),
            );
        }
        let cfg = hostile(ProtocolKind::Sstsp, spec, bridged_mesh);
        add(&format!("campaign/{name}/traced"), traced(&cfg));
        add(&format!("campaign/{name}/checked"), checker(&cfg));
    }
    let jamref_case =
        case("n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2 campaign=jamref:1:4:9");
    let coalition_case =
        case("n=12 dur=12 seed=7 m=4 delta=300 plan=0 campaign=coalition:3:800:2:5:10");
    add("campaign/jamref/harness", harnessed_traced(&jamref_case));
    add(
        "campaign/coalition/harness",
        harnessed_traced(&coalition_case),
    );

    // --- Record / replay -------------------------------------------------
    let single_case = case("n=8 dur=12 seed=7 m=4 delta=300 plan=3 burst@10..40:p=0.6");
    let mesh_case = case("n=13 dur=12 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2");
    add("replay/single-hop", replayed(&single_case, |_| {}));
    add("replay/bridged", replayed(&mesh_case, |_| {}));
    add("replay/jamref", replayed(&jamref_case, |_| {}));
    add("replay/coalition", replayed(&coalition_case, |_| {}));
    // A recording whose beacon schedule names a different winner at one BP:
    // the window-override seam substitutes it and the run follows the
    // recording from there on.
    add(
        "replay/flipped-winner",
        replayed(&single_case, |events| {
            let tx = events
                .iter_mut()
                .filter_map(|e| match e {
                    TraceEvent::BeaconTx { bp, src } if *bp >= 30 => Some(src),
                    _ => None,
                })
                .next()
                .expect("a beacon after BP 30");
            *tx = (*tx + 1) % 8;
        }),
    );

    // --- Fault effects that persist across BPs with nothing scheduled ----
    // A fault jam latched at BP 30 and released at BP 46: the BPs between
    // carry no fault action and no scenario event.
    let jam = case("n=8 dur=12 seed=7 m=4 delta=300 plan=1 jam@30..45");
    // A burst-loss setting applied once and cleared 60 BPs later.
    let burst = case("n=8 dur=12 seed=7 m=4 delta=300 plan=2 burst@20..80:p=0.7");
    // A crash whose reboot (BP 20 + 15) lands on a BP nothing else marks.
    let rejoin = case("n=8 dur=12 seed=7 m=4 delta=300 plan=4 crash@20..20:node=3,rejoin=15");
    let killref = case("n=8 dur=12 seed=7 m=4 delta=300 plan=5 killref@25..25:rejoin=17");
    let mesh_faults = case(
        "n=13 dur=12 seed=7 m=4 delta=300 plan=6 mesh=bridged:2:3:2 \
         jam@30..40 crashdom@50..50:domain=1,rejoin=13 burst@60..90:p=0.5",
    );
    // Each hazard case must actually exercise its hazard.
    assert!(run_case(&jam).result.jammed_windows >= 10, "latched jam");
    assert!(run_case(&killref).result.reference_changes >= 2, "killref");
    let undisturbed = run_case(&case("n=8 dur=12 seed=7 m=4 delta=300 plan=2"));
    for c in [&burst, &rejoin] {
        assert_ne!(
            run_case(c).result.spread.values(),
            undisturbed.result.spread.values(),
            "{c} left the run untouched"
        );
    }
    for (name, c) in [
        ("jam-latched", &jam),
        ("burst-persists", &burst),
        ("crash-rejoin-quiet", &rejoin),
        ("killref-rejoin-quiet", &killref),
        ("mesh-mixed", &mesh_faults),
    ] {
        add(&format!("hazard/{name}/harness"), harnessed(c));
        add(&format!("hazard/{name}/traced"), harnessed_traced(c));
    }
    out
}

/// `(fixture, SHA-256 of its observables)`, recorded by `print_digests`.
#[rustfmt::skip]
const DIGESTS: &[(&str, &str)] = &[
    ("plain/TSF", "46950e7b8f7c4c82df19e5a6ecf5b30f3813d9f83ae1434779e96742a63cd871"),
    ("plain/ATSP", "e2da8e3fb1873200c881ef5b486337d770bdd6c2da92fc8f2a4c090156a0cb0f"),
    ("plain/TATSP", "1ae639d3799ca11a4c97a81903db6e2ed399f026ac4effc029054ef3c87f0fc8"),
    ("plain/SATSF", "c0009163fd2136a61b5798d64c68574d46f88957cba05ecd7399a5e076489714"),
    ("plain/ASP", "335039381e3edd98cbcfc380ba7fed04e6bb3416fc48186882b6aa052cb6b588"),
    ("plain/RK", "f5a163f00a88bd7b462d01d5a15cbf5864c1494bdad4a268c264a656ccc2caa9"),
    ("plain/SSTSP", "0b877187fef1596cc386ebd0dd4a6735cfd8c41eacd3392dfb3c2d28d206156f"),
    ("plain/ablation-refchange", "0b548ecb5761bb473280c85faf97bc2f3c6d57a1ad2ccf84bffeba7da2aa2980"),
    ("plain/sstsp-n100", "71923b550100ab39f25e47efa980113e99f2d8ef64f4183a7853777bd0fd9d33"),
    ("plain/sstsp-n1000", "bbdbd60a7a6d3926c4670ce0b70f9bd5b33ae4ead306b3674dfb225e023b8169"),
    ("plain/line-12", "605a276e3c6ea77903bb53836c45ca17f773bcb862bf2ac899c54768cb280f38"),
    ("plain/ring-12", "2adc0469b02087ce03bfa3c32ba41fd437267368338fdbaf5f20d52f990dadc9"),
    ("plain/grid-4x3", "487c0a9f728d755ce37cf50ed82280870a621f3d1d3b81d9003546267b0969d8"),
    ("plain/rgg-16", "daeb686a09397893b2f77e398e94ad29d8a892d51d3ceb01084fd110d61daa48"),
    ("plain/bridged-2:3:2", "e09057ddffb4e2bd49bda9af0b8f664dbc8411bcf65cf9e828b6e4feed887eea"),
    ("plain/bridged-4:5:5", "a0c18d1eee727d2078bdd97043453e3703849f00cee10462aee9f264976c6d8e"),
    ("traced/single-hop", "be88942f67b7ea5681afb5bc4b86fb6007beebacf0e2f7ebff7b47e2ba3f0bf2"),
    ("traced/tsf", "a81fe05ac679ec40c16dcf80f4407e2f509f71d759ddb97703ce77fb5f8cf075"),
    ("traced/line-12", "ae34382893030bcb7c3a99bcf2d50206b4bd37e8194542c5ff18e3ae09ae0098"),
    ("traced/bridged-2:3:2", "cf4a302f1a34f4211bdc024fedf60b6c4c5f7c75225652d227a9110f5f6e69d1"),
    ("checked/single-hop", "0b877187fef1596cc386ebd0dd4a6735cfd8c41eacd3392dfb3c2d28d206156f"),
    ("checked/ablation-refchange", "0b548ecb5761bb473280c85faf97bc2f3c6d57a1ad2ccf84bffeba7da2aa2980"),
    ("checked/line-12", "3d740ff7d806972e805732158d88c5f308219006f3f61620e64a885ff47d984c"),
    ("checked/bridged-2:3:2", "e09057ddffb4e2bd49bda9af0b8f664dbc8411bcf65cf9e828b6e4feed887eea"),
    ("checked/churn-n30", "89c3e052669d2d231c5b08fe919037b834fed2aefc684041611bc3d5f724008f"),
    ("fuzz0/plain", "49d7942ca4ae904debc2d40a422c15ddf5751aa931f9ee3d92c6e34d693524f5"),
    ("fuzz0/harness", "a35f3c5cf0d530e9ecb7ebebce0b69ee8ce9761016d2a63e451fe00c8ff99b45"),
    ("fuzz1/plain", "8ca5ce9a1de10a49a6b9e67e389ae3e242f2a58975c953cb4bf6f916abfd4420"),
    ("fuzz1/harness", "69e55be94fbb35f4a0c76b594b9ff3bfd06946990357e1c404541abed84cef3f"),
    ("fuzz2/plain", "b7c90629bc33c44cf3e2dc4343224f987e4889f31c41143a161fd34847f1aafd"),
    ("fuzz2/harness", "770aec862321dc930e2afc3e25edf1fcbe5e959d439c8ebba8059ceb65a9db74"),
    ("fuzz3/plain", "6b74ca5b7459476121728a4398a1feb21ddd65be1591fc0ec70572f5f58b94da"),
    ("fuzz3/harness", "a086657e88d184a596bd565e5fb69c139b13ce95221bd314cc97ae0c4b720f32"),
    ("fuzz4/plain", "57c068e88cf8a262f9de4f1eda10ac80a4963ceac13020bc68eff67241632aa4"),
    ("fuzz4/harness", "14ffee25743a8b6c34c6c6a282dd2c8f8b93d4f647f6960fa02439cf721f3de6"),
    ("fuzz5/plain", "b01f507474c92bc1a410c644d398a86b9f34ab218b1791e9af71a985ae7d2955"),
    ("fuzz5/harness", "751ac7702670b4758e8e6eb5fe194fbc0e31a27fbc39fc09b6d2ce21417a8f4e"),
    ("meshfuzz0/plain", "f60a766ec44b8bd1327144047d4f91527d4c98219d8fd65492047a38ac3939c0"),
    ("meshfuzz0/harness", "05123074779361355c099968ac205bf6d7264bf8aa5312c9ea21d7be22cf9433"),
    ("meshfuzz1/plain", "e29db94ad02b1861ed0df50c282ec6f3351647af8fed6a8d6348f263eac95a76"),
    ("meshfuzz1/harness", "59d82baf77d635f1d445102a3d7ef130ec2f3211a64f74b70d927237c3815a56"),
    ("meshfuzz2/plain", "a1ac6d91a214de17262d95b0a9c0d5608f59ea396cce3cc3f6f9e5f1caa7e482"),
    ("meshfuzz2/harness", "1d4958c27eb67997d4d46d7c9eb0b956b71e29be548c68f6106ab7c2bf610ad0"),
    ("campaignfuzz0/harness", "4d06f42edcebb479981173807ea069aeb71d924d7dc77df80c80eca1648e91b2"),
    ("campaignfuzz1/harness", "03e8653053f6dfd3c318ddb607a34cca657016f87ba100a472d6f06d0c0745ef"),
    ("campaignfuzz2/harness", "32cd5680d5cbbc7fd666e154efb93278b69a62e629c0ec80a9377e669a37b4a7"),
    ("campaign/coalition/SSTSP/plain", "3c952d97d788b8b49dc6ca32985e88bd5511e94a2b2c00594ed098fc41f1277b"),
    ("campaign/coalition/TSF/plain", "0ea25f202bdf6a2007b433f45495e8394a89d7e3fcc01d35ef1226c8e0ad30a5"),
    ("campaign/coalition/traced", "a4c5b3c3a91fab6c294a414f797e0afe025ba777006a6525671e31ab653434ad"),
    ("campaign/coalition/checked", "a651597b36ea5f0ab708939022d8c914c2420b80ea62e05d58896240e4f3cb90"),
    ("campaign/sybil/SSTSP/plain", "1e55f697f5be23496f64b08d953e913ec1cadeda07e981310ad7334efca33622"),
    ("campaign/sybil/TSF/plain", "525f8a7f7c2f769969d64d5bebf54c5e8e23425ea88c362e28239dfc7ad65acf"),
    ("campaign/sybil/traced", "199c56f616a417911bff22cead21b736ab43860d66f39bf31b501883b7467635"),
    ("campaign/sybil/checked", "e0e8adcf11efec8f7fbf8b04d978297786b5777d2d5739f4c466d3aa0782dcb8"),
    ("campaign/jamref/SSTSP/plain", "eb4af812c375e3fc706f670793e69298a9404161328ecbe3dd307b38af0ff740"),
    ("campaign/jamref/TSF/plain", "8b446fe402887d7b2f8287d11964be4305309dd583987e70c89f1918460a9c3c"),
    ("campaign/jamref/traced", "5eb5e814c63c60be12807f693c73072b06d53775cbaa15847c0a7d49cf3a99cc"),
    ("campaign/jamref/checked", "6930e93acef27ddd64fe6476c38794409fc8d16c9bb735e442aa683c532d7570"),
    ("campaign/jamref/harness", "0f6f8187117d700fb3fbca0d85013f0ff94c195812827a45888b12d57fe965b6"),
    ("campaign/coalition/harness", "acc823070c7986cf622c66249c5a32bf660a40f4314fb560359ab7f33be6929e"),
    ("replay/single-hop", "310f36e37832bfb278043d570d4d6ebbfa3f96f7558d3f7d932d45bf6fc4621c"),
    ("replay/bridged", "414cc85be1c74c480e8391de4e03f713a42d162d99c556f32a14fb8321cbdcc6"),
    ("replay/jamref", "5295bf2e57b6f70ef2eebc32dda6935a04880ba20139a3cb533d1e8f6f956c7f"),
    ("replay/coalition", "83f1181f991b49837247bb46dc484094b5f7d1cc0401797dc00fb0ab8f80deb4"),
    ("replay/flipped-winner", "b4102a95a564bcd7f298f034ab1f728a4002e42ca93c177b575301afebcd7efb"),
    ("hazard/jam-latched/harness", "1431819ce883274edb0837e4701623ecab08d7cbf75c536f325213d7d349d376"),
    ("hazard/jam-latched/traced", "64000d937de6cf6c8da392fd9504cdd0d706311451291ab400c52c8ed1a4059c"),
    ("hazard/burst-persists/harness", "ff14e4a92c4179d61b9c5998be06466bd76d27729e4d05e6fbd6b6579c9a77d6"),
    ("hazard/burst-persists/traced", "baa675615d00f364fe01de157a9475f431e10b38c2521a45fc38e50b40974a4f"),
    ("hazard/crash-rejoin-quiet/harness", "abd2bc8dfa19e2f7423f296f6b01b2374103c3d055c1ee3a98a882a5cf314e3b"),
    ("hazard/crash-rejoin-quiet/traced", "a972fa76173eaa8b2bfba3c2da7787ff9564bfd82d3d82e6df3a2459d936208c"),
    ("hazard/killref-rejoin-quiet/harness", "77f94cf98a65a74c567ed09c31bb8de6ca33fe422e0e97a11eeb66a922fb744e"),
    ("hazard/killref-rejoin-quiet/traced", "451e53b61d5fdb223f3cdfce4aa3165949c6c49c60fdcd4b135bcddf52ca390c"),
    ("hazard/mesh-mixed/harness", "ad3012a563387835c55bd5af942a336ee2d0836f2902dc8771f99c98bcb5b004"),
    ("hazard/mesh-mixed/traced", "2cb5d5125ba13f637a6ba0ed2a8f19849476e05bf6920454ff7519aa1f5ef783"),
];

#[test]
fn engine_runs_match_frozen_digests() {
    let got = fixtures();
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = DIGESTS.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, want, "fixture list changed; regenerate the table");
    let diverged: Vec<&str> = got
        .iter()
        .zip(DIGESTS)
        .filter(|((_, g), &(_, w))| g != w)
        .map(|((n, _), _)| n.as_str())
        .collect();
    assert!(diverged.is_empty(), "digests diverged: {diverged:?}");
}

/// Generator: prints the current digests in `DIGESTS` layout.
#[test]
#[ignore = "generator — run with --ignored --nocapture to refresh DIGESTS"]
fn print_digests() {
    for (name, digest) in fixtures() {
        println!("    (\"{name}\", \"{digest}\"),");
    }
}
