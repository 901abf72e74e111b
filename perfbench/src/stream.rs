//! `stream`: one 1-s CIB period through `bench::pipeline::outputs_streaming`,
//! the call `reproduce pipeline --sample-rate` makes.
//!
//! The driver fixes its own inputs (`SEED = 42` inside
//! `bench::pipeline`), so the benchmark seed cannot reach this workload.
//! The traced run replays the driver's public calls with the constants
//! copied below; the equality check against the driver's `PathOutputs`
//! catches any drift between the copy and the driver.

use crate::ledger::{counter_metrics, end_to_end, fnv1a, setup, timed_calls, Ledger, Outcome};
use ivn_bench::pipeline::{outputs_batch, outputs_streaming, PathOutputs, StreamOptions};
use ivn_core::freqsel::expected_peak;
use ivn_core::PAPER_OFFSETS_HZ;
use ivn_dsp::block::{BlockSource, ConstSource, PeakMeter, StreamHasher};
use ivn_em::channel::ChannelEnsemble;
use ivn_em::stream::BlockSuperposer;
use ivn_harvester::powerup::TagPowerProfile;
use ivn_rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn_rfid::fm0::Fm0;
use ivn_rfid::pie::{encode_frame, PieParams};
use ivn_rfid::stream::{Fm0Decoder, PieStreamDecoder, RunRasterizer};
use ivn_runtime::obs::Report;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use std::time::Instant;

/// Simulated sample rate of the CIB period, S/s.
const SAMPLE_RATE: f64 = 2_000_000.0;
/// Samples per block (`reproduce pipeline`'s default).
const BLOCK: usize = 4096;
/// Replays per traced run (one period is a fraction of a second).
const REPLAYS: usize = 8;

// The driver's private constants, copied for the traced replay.
const SEED: u64 = 42;
const N_ANTENNAS: usize = 5;
const CARRIER_HZ: f64 = 915e6;
const POWER_MARGIN: f64 = 2.0;
const DRIVE: f64 = 0.05;
const RFID_FS: f64 = 400e3;
const SCORE_DRAWS: usize = 64;
const SCORE_GRID: usize = 1024;

fn options() -> StreamOptions {
    StreamOptions {
        sample_rate: Some(SAMPLE_RATE),
        block: BLOCK,
        threads: 1,
        stats: false,
    }
}

/// Digest of every field of a `PathOutputs` (its `Debug` form prints
/// floats exactly).
fn digest(o: &PathOutputs) -> u64 {
    fnv1a(format!("{o:?}").as_bytes())
}

/// The whole-buffer oracle's digest at [`SAMPLE_RATE`]. It holds every
/// sample in memory, so it runs in a process of its own, before the
/// timed one starts.
pub fn oracle_digest() -> u64 {
    digest(&outputs_batch(false, Some(SAMPLE_RATE)))
}

fn check(out: &mut Outcome, o: &PathOutputs, oracle: u64) {
    let ok = o.outcome.powered && o.downlink_ok && o.uplink_ok && digest(o) == oracle;
    out.check(ok, || {
        format!(
            "stream outputs differ from the oracle: powered={} downlink={} uplink={} rx_hash={:016x}",
            o.outcome.powered, o.downlink_ok, o.uplink_ok, o.rx_hash
        )
    });
}

/// The stages the driver builds before its first sample, in its RNG
/// draw order: plan score, bank, channels, RN16.
struct Stages {
    score: f64,
    bank: TxBank,
    superposer: BlockSuperposer,
    rn16: Vec<bool>,
}

fn build_stages(ledger: &mut Ledger) -> Stages {
    let mut rng = StdRng::seed_from_u64(SEED);
    let offsets = &PAPER_OFFSETS_HZ[..N_ANTENNAS];
    let score = ledger.time("freqsel.busy_s", || {
        expected_peak(offsets, SCORE_DRAWS, SCORE_GRID, &mut rng)
    });
    let bank = ledger.time("sdr.busy_s", || {
        TxBank::new(
            &mut rng,
            N_ANTENNAS,
            CARRIER_HZ,
            SAMPLE_RATE,
            offsets,
            &ClockDistribution::octoclock(),
        )
    });
    let superposer = ledger.time("em.busy_s", || {
        let ens = ChannelEnsemble::blind(&mut rng, N_ANTENNAS, 0.3, CARRIER_HZ);
        BlockSuperposer::from_ensemble(&ens, |i| bank.emission_hz(i))
    });
    let rn16 = ledger.time("rfid.busy_s", || {
        (0..16).map(|_| rng.random::<bool>()).collect()
    });
    Stages {
        score,
        bank,
        superposer,
        rn16,
    }
}

/// Timed run: set-up is the stage construction above (median of 15);
/// each call is one `outputs_streaming` period.
pub fn timed(seconds: f64, oracle: u64) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, _) = setup(|| build_stages(&mut Ledger::default()));
    let opts = options();
    let mut first = None;
    let calls = timed_calls(
        seconds,
        3,
        || outputs_streaming(false, &opts).outputs,
        |o| {
            check(&mut out, &o, oracle);
            first.get_or_insert(o);
        },
    );
    out.digest = first.as_ref().map_or(0, digest);
    end_to_end(&mut out, setup_s, &calls, SAMPLE_RATE);
    out.notes.push(format!(
        "stream sample_rate_msps = {:.3} MS/s (reference host)",
        out.metrics[0].1 / 1e6
    ));
    out
}

/// Traced run: [`REPLAYS`] pairs of an untimed driver call and a replay
/// with every layer call timed, interleaved so that both sides see the
/// same host. Rows are per replay.
pub fn traced(oracle: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let (mut ref_wall, mut wall) = (0.0, 0.0);
    let mut first: Option<(PathOutputs, Report)> = None;
    let mut rfid_samples = 0;
    for _ in 0..REPLAYS {
        let t0 = Instant::now();
        let reference = outputs_streaming(false, &options()).outputs;
        ref_wall += t0.elapsed().as_secs_f64();
        check(&mut out, &reference, oracle);

        ivn_runtime::obs::set_enabled(true);
        let before = ivn_runtime::obs::report();
        let t0 = Instant::now();
        let (replayed, samples) = replay(&mut ledger);
        wall += t0.elapsed().as_secs_f64();
        let counters = ivn_runtime::obs::report().delta(&before);
        ivn_runtime::obs::set_enabled(false);
        out.check(replayed == reference, || {
            format!("stream replay differs from the driver: {replayed:?} vs {reference:?}")
        });
        rfid_samples = samples;
        first.get_or_insert((reference, counters));
    }
    let (reference, counters) = first.expect("at least one replay");
    let per = 1.0 / REPLAYS as f64;
    ledger.scale(per);
    out.digest = digest(&reference);

    for (row, msps) in [
        ("sdr.busy_s", "sdr.msps"),
        ("em.busy_s", "em.msps"),
        ("harvester.busy_s", "harvester.msps"),
    ] {
        out.metric(msps, SAMPLE_RATE / ledger.get(row) / 1e6, "MS/s");
    }
    let rfid_msps = rfid_samples as f64 / ledger.get("rfid.busy_s") / 1e6;
    out.metric("rfid.msps", rfid_msps, "MS/s");
    ledger.report(&mut out, wall * per, ref_wall * per);
    counter_metrics(&mut out, &counters);
    out
}

/// `outputs_streaming` call by call, each call booked to its layer.
/// Returns the outputs and the samples the rfid sessions processed.
fn replay(ledger: &mut Ledger) -> (PathOutputs, usize) {
    let s = build_stages(ledger);
    let tag = ledger.time("harvester.busy_s", TagPowerProfile::standard_tag);
    let n_samples = SAMPLE_RATE as usize;

    // Pass A, calibration: sdr and em streamed once for the running peaks.
    let (single_amp, peak_amp) = ledger.time("calibration.busy_s", || {
        let mut single_meter = PeakMeter::new();
        let mut peak_meter = PeakMeter::new();
        let mut streamer = s.bank.streamer(DRIVE, 1);
        let mut src = ConstSource::new(1.0, n_samples);
        let (mut profile, mut rx) = (Vec::new(), Vec::new());
        loop {
            profile.clear();
            let done = src.fill(&mut profile, BLOCK) == 0;
            if done {
                streamer.flush();
            } else {
                streamer.push(&profile);
            }
            s.superposer.superpose_block(streamer.blocks(), &mut rx);
            single_meter.observe_block(streamer.block(0));
            peak_meter.observe_block(&rx);
            if done {
                break (single_meter.peak(), peak_meter.peak());
            }
        }
    });
    let scale = POWER_MARGIN * tag.required_peak_power_watts() / (peak_amp * peak_amp);

    // Pass B: regenerate the stream, power the tag, hash every sample.
    let mut state = ledger.time("harvester.busy_s", || {
        tag.begin_power_up(SAMPLE_RATE)
            .with_trace_stride((n_samples / 32).max(1))
    });
    let mut hasher = StreamHasher::new();
    let mut streamer = ledger.time("sdr.busy_s", || s.bank.streamer(DRIVE, 1));
    let mut src = ConstSource::new(1.0, n_samples);
    let (mut profile, mut rx) = (Vec::new(), Vec::new());
    loop {
        let done = ledger.time("harness.busy_s", || {
            profile.clear();
            src.fill(&mut profile, BLOCK) == 0
        });
        ledger.time("sdr.busy_s", || {
            if done {
                streamer.flush();
            } else {
                streamer.push(&profile);
            }
        });
        ledger.time("em.busy_s", || {
            s.superposer.superpose_block(streamer.blocks(), &mut rx)
        });
        ledger.time("harness.busy_s", || hasher.update_complex(&rx));
        ledger.time("harvester.busy_s", || state.step_rx_block(&rx, scale));
        if done {
            break;
        }
    }
    let outcome = ledger.time("harvester.busy_s", || state.finish());

    // rfid: as many Query + RN16 reader sessions as fit the period.
    let (downlink_ok, uplink_ok, rfid_samples) = ledger.time("rfid.busy_s", || {
        let bits = Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: Session::S0,
            q: 0,
        }
        .encode();
        let runs = encode_frame(&bits, &PieParams::paper_defaults(), true);
        let fm0 = Fm0::new(8);
        let wave = fm0.encode(&s.rn16);
        let mut probe = RunRasterizer::new(runs.clone(), RFID_FS, 0.0);
        let mut sink = Vec::new();
        while probe.fill(&mut sink, 4096) > 0 {}
        let sessions = (n_samples / (probe.emitted() + wave.len())).max(1);
        let (mut down, mut up, mut samples) = (true, true, 0usize);
        for _ in 0..sessions {
            let mut raster = RunRasterizer::new(runs.clone(), RFID_FS, 0.0);
            let mut dec = PieStreamDecoder::new(0.5, RFID_FS);
            let mut frame = Vec::new();
            loop {
                frame.clear();
                if raster.fill(&mut frame, BLOCK) == 0 {
                    break;
                }
                dec.push(&frame);
            }
            samples += dec.samples_seen() + wave.len();
            down &= dec.finish().map(|d| d == bits).unwrap_or(false);
            let mut rx16 = Fm0Decoder::new(fm0);
            for chunk in wave.chunks(BLOCK) {
                rx16.push(chunk);
            }
            up &= rx16.finish() == s.rn16;
        }
        (down, up, samples)
    });

    let outputs = PathOutputs {
        sample_rate: SAMPLE_RATE,
        n_samples,
        score: s.score,
        single_amp,
        peak_amp,
        outcome,
        downlink_ok,
        uplink_ok,
        rx_hash: hasher.digest(),
    };
    (outputs, rfid_samples)
}
