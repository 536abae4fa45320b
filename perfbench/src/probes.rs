//! Per-layer probes: timed calls into each crate's public functions with
//! the workload's own parameters, run from the benchmark (nothing inside
//! the engine is instrumented for them).

use crate::spans::Tracer;
use crate::stats::{median, quantile};
use clocks::Oscillator;
use simcore::rng::StreamDomain;
use simcore::{RngStreams, SimTime};
use sstsp::instrument::{BpBatch, BpView, HookCaps};
use sstsp::scenario::TopologySpec;
use sstsp::{EngineHook, Network, ScenarioConfig, TraceRecorder};
use sstsp_crypto::chain::chain_step;
use sstsp_crypto::hmac::hmac_sha256_128;
use sstsp_crypto::{ChainElement, IntervalSchedule, MuTeslaSigner, MuTeslaVerifier};
use std::hint::black_box;
use std::time::Instant;
use wireless::{Channel, MhAttempt, PhyParams, Topology, TxAttempt};

/// Wire size of a secured (µTESLA) SSTSP beacon frame, bytes.
pub const SECURED_FRAME_BYTES: usize = 92;
/// Bytes of a beacon body covered by its MAC (`BeaconBody::auth_bytes`).
const AUTH_BYTES: usize = 32;

type NodeId = u32;

/// Call `f` (which does `per_call` calls) until at least `min_s` seconds
/// have passed, `reps` times; the median ns per call.
fn ns_per_call(reps: usize, min_s: f64, per_call: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed().as_secs_f64() < min_s {
                f();
                calls += per_call;
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

pub struct CryptoProbe {
    pub chain_step_ns: f64,
    pub hmac128_ns: f64,
    pub verify_ns: f64,
    pub sign_ns: f64,
    pub hashes_per_verify: f64,
}

/// µTESLA costs over the probe scenario's horizon: one signer signing
/// every interval, one receiver observing every beacon in order (the
/// steady state of a synchronized station).
pub fn crypto(cfg: &ScenarioConfig, tr: &Tracer) -> CryptoProbe {
    tr.time("probe.crypto", None, 0, |span| {
        let chain_step_ns = tr.time("sstsp_crypto.chain_step", span, 0, |_| {
            let mut x: ChainElement = [7u8; 16];
            ns_per_call(5, 0.03, 256, || {
                for _ in 0..256 {
                    x = chain_step(black_box(&x));
                }
            })
        });
        let hmac128_ns = tr.time("sstsp_crypto.hmac_sha256_128", span, 0, |_| {
            let key: ChainElement = [3u8; 16];
            let mut frame = [0u8; SECURED_FRAME_BYTES];
            let mut i = 0u8;
            ns_per_call(5, 0.03, 64, || {
                for _ in 0..64 {
                    frame[0] = i;
                    i = i.wrapping_add(1);
                    black_box(hmac_sha256_128(black_box(&key), black_box(&frame)));
                }
            })
        });
        let pcfg = &cfg.protocol_config;
        let horizon = (cfg.total_bps() as usize).min(pcfg.total_intervals);
        let schedule = || IntervalSchedule::new(0.0, pcfg.bp_us, pcfg.total_intervals);
        let payload = |j: usize| {
            let mut p = [0u8; AUTH_BYTES];
            p[..8].copy_from_slice(&(j as u64).to_le_bytes());
            p
        };
        let seed: ChainElement = [11u8; 16];
        let mut sign_samples = Vec::new();
        let mut auths = Vec::with_capacity(horizon);
        tr.time("sstsp_crypto.MuTeslaSigner::sign", span, 0, |_| {
            for rep in 0..3 {
                let mut signer = MuTeslaSigner::new(seed, schedule());
                let t = Instant::now();
                for j in 1..=horizon {
                    let a = signer.sign(&payload(j), j);
                    if rep == 0 {
                        auths.push(a);
                    }
                }
                sign_samples.push(t.elapsed().as_nanos() as f64 / horizon as f64);
            }
        });
        let anchor = MuTeslaSigner::new(seed, schedule()).anchor();
        let verify = |v: &mut MuTeslaVerifier| {
            for (k, a) in auths.iter().enumerate() {
                let j = k + 1;
                let now_us = (j as f64 - 0.5) * pcfg.bp_us;
                let ok = v.observe(&payload(j), a, now_us).is_ok();
                assert!(ok, "probe beacon {j} must verify");
            }
        };
        let mut counted = MuTeslaVerifier::new(anchor, schedule());
        verify(&mut counted);
        let hashes_per_verify = counted.hash_count() as f64 / horizon as f64;
        let verify_ns = tr.time("sstsp_crypto.MuTeslaVerifier::observe", span, 0, |_| {
            ns_per_call(3, 0.03, horizon as u64, || {
                verify(&mut MuTeslaVerifier::new(anchor, schedule()))
            })
        });
        CryptoProbe {
            chain_step_ns,
            hmac128_ns,
            verify_ns,
            sign_ns: median(&sign_samples),
            hashes_per_verify,
        }
    })
}

/// Passive hook riding the fast path: per-BP transmitter sets and the
/// host time between BP boundaries. On the slow path (hooked or campaign
/// runs) it collects the same from the per-event callbacks.
pub struct TxCapture {
    pub txs: Vec<Vec<NodeId>>,
    current: Vec<NodeId>,
    last: Option<Instant>,
    pub bp_ns: Vec<f64>,
}

impl TxCapture {
    pub fn new() -> Self {
        TxCapture {
            txs: Vec::new(),
            current: Vec::new(),
            last: None,
            bp_ns: Vec::new(),
        }
    }

    fn boundary(&mut self) {
        let now = Instant::now();
        if let Some(prev) = self.last {
            self.bp_ns.push((now - prev).as_nanos() as f64);
        }
        self.last = Some(now);
        self.txs.push(std::mem::take(&mut self.current));
    }
}

impl EngineHook for TxCapture {
    fn capabilities(&self) -> HookCaps {
        HookCaps {
            fastpath_safe: true,
        }
    }

    fn on_bp_batch(&mut self, batch: &BpBatch<'_>) {
        self.current.extend_from_slice(batch.txs);
        self.boundary();
    }

    fn on_beacon_tx(&mut self, _bp: u64, src: NodeId, _t_tx: SimTime) {
        self.current.push(src);
    }

    fn on_bp_end(&mut self, _view: &BpView<'_>) {
        self.boundary();
    }
}

pub struct CaptureProbe {
    pub capture: TxCapture,
    pub bp_ns_p50: f64,
    pub bp_ns_p99: f64,
}

pub fn capture(cfg: &ScenarioConfig, tr: &Tracer) -> CaptureProbe {
    tr.time("probe.core.bp_batch", None, 0, |_| {
        let mut hook = TxCapture::new();
        black_box(Network::build(cfg).run_with_hook(&mut hook));
        CaptureProbe {
            bp_ns_p50: quantile(&hook.bp_ns, 0.5),
            bp_ns_p99: quantile(&hook.bp_ns, 0.99),
            capture: hook,
        }
    })
}

pub struct WirelessProbe {
    pub resolve_ns: f64,
    pub deliver_batch_ns_per_rx: f64,
    pub windows: u64,
}

/// Window resolution replayed on the captured transmitter sets, and the
/// per-receiver delivery draws. On a mesh, each captured transmitter is
/// replayed as a relay attempt in its own airtime-spaced slot, so the
/// resolver decides exactly the transmissions the run made; single-hop
/// sets go through `Channel::resolve_window` at slot 0.
pub fn wireless(cfg: &ScenarioConfig, txs: &[Vec<NodeId>], tr: &Tracer) -> WirelessProbe {
    tr.time("probe.wireless", None, 0, |span| {
        let airtime = PhyParams::paper_ofdm().sstsp_beacon_slots as u32;
        let windows: Vec<&Vec<NodeId>> = txs.iter().filter(|t| !t.is_empty()).collect();
        let resolve_ns = match cfg.topology {
            Some(TopologySpec::Bridged {
                domains,
                cols,
                rows,
            }) => tr.time("wireless.MeshResolver::resolve", span, 0, |_| {
                let (topo, decomp) = Topology::bridged(domains, cols, rows);
                let mut resolver = wireless::MeshResolver::new(&topo, &decomp);
                let attempts: Vec<Vec<MhAttempt>> = windows
                    .iter()
                    .map(|set| {
                        set.iter()
                            .enumerate()
                            .map(|(i, &station)| MhAttempt {
                                station,
                                slot: i as u32 * airtime,
                                relay: true,
                            })
                            .collect()
                    })
                    .collect();
                ns_per_call(3, 0.05, attempts.len() as u64, || {
                    for a in &attempts {
                        black_box(resolver.resolve(&topo, a, airtime).deliveries.len());
                    }
                })
            }),
            _ => tr.time("wireless.Channel::resolve_window", span, 0, |_| {
                let channel = Channel::new(cfg.per);
                let attempts: Vec<Vec<TxAttempt>> = windows
                    .iter()
                    .map(|set| {
                        set.iter()
                            .map(|&station| TxAttempt { station, slot: 0 })
                            .collect()
                    })
                    .collect();
                ns_per_call(3, 0.03, attempts.len().max(1) as u64, || {
                    for a in &attempts {
                        black_box(channel.resolve_window(a));
                    }
                })
            }),
        };
        let deliver_batch_ns_per_rx = tr.time("wireless.Channel::deliver_batch", span, 0, |_| {
            let channel = Channel::new(cfg.per);
            let mut rng = RngStreams::new(cfg.seed).stream(StreamDomain::ChannelError, 0);
            let mut out = Vec::new();
            let rx = cfg.n_nodes as usize - 1;
            ns_per_call(3, 0.03, 16 * rx as u64, || {
                for _ in 0..16 {
                    channel.deliver_batch(&mut rng, rx, &mut out);
                    black_box(out.len());
                }
            })
        });
        WirelessProbe {
            resolve_ns,
            deliver_batch_ns_per_rx,
            windows: windows.len() as u64,
        }
    })
}

/// `Oscillator::local_us` evaluated for every station at every BP of the
/// scenario (capped at two million evaluations).
pub fn clocks(cfg: &ScenarioConfig, tr: &Tracer) -> f64 {
    tr.time("probe.clocks.Oscillator::local_us", None, 0, |_| {
        let oscs: Vec<Oscillator> = (0..cfg.n_nodes)
            .map(|i| Oscillator::new(1.0 + (f64::from(i % 200) - 100.0) * 1e-6, f64::from(i)))
            .collect();
        let bp_s = cfg.protocol_config.bp_us / 1e6;
        let bps = (cfg.total_bps())
            .min(2_000_000 / u64::from(cfg.n_nodes).max(1))
            .max(1);
        ns_per_call(3, 0.03, bps * oscs.len() as u64, || {
            let mut acc = 0.0;
            for k in 1..=bps {
                let t = SimTime::from_secs_f64(k as f64 * bp_s);
                for o in &oscs {
                    acc += o.local_us(t);
                }
            }
            black_box(acc);
        })
    })
}

/// `1 − run ÷ run_checked` for the same config, each the median of `reps`.
pub fn checker_share(cfg: &ScenarioConfig, reps: usize, tr: &Tracer) -> f64 {
    tr.time("probe.core.checker_share", None, 0, |_| {
        let mut plain = Vec::new();
        let mut checked = Vec::new();
        for _ in 0..reps {
            let net = Network::build(cfg);
            let t = Instant::now();
            black_box(net.run());
            plain.push(t.elapsed().as_secs_f64());
            let mut checker = sstsp::InvariantChecker::for_scenario(cfg);
            let net = Network::build(cfg);
            let t = Instant::now();
            black_box(net.run_with_hook(&mut checker));
            checked.push(t.elapsed().as_secs_f64());
        }
        1.0 - median(&plain) / median(&checked)
    })
}

/// Overhead of recording a full event trace with a passive
/// [`TraceRecorder`], % of the plain run's time (median of `reps` pairs).
pub fn recording_overhead_pct(cfg: &ScenarioConfig, reps: usize, tr: &Tracer) -> f64 {
    tr.time("probe.telemetry.TraceRecorder", None, 0, |_| {
        let mut pcts = Vec::new();
        for _ in 0..reps {
            let net = Network::build(cfg);
            let t = Instant::now();
            black_box(net.run());
            let plain = t.elapsed().as_secs_f64();
            let mut rec = TraceRecorder::new();
            let net = Network::build(cfg);
            let t = Instant::now();
            black_box(net.run_with_hook(&mut rec));
            let traced = t.elapsed().as_secs_f64();
            black_box(rec.into_events().len());
            pcts.push((traced / plain - 1.0) * 100.0);
        }
        median(&pcts)
    })
}
