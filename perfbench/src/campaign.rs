//! `campaign`: a generated full-mode `session` fleet through
//! `bench::campaign::run` on two workers, after the scenario JSON round
//! trip `reproduce campaign` makes when it loads a fleet directory.
//!
//! The fleet sweeps water-tank depths and media boxes and jitters the
//! EIRP; about one scenario in eight asks for an `Optimize` frequency
//! plan drawn from [`PLAN_KEYS`] keys, so the plan cache serves reads
//! beside a few writes. The cache is cleared before every call: each
//! user process starts with it empty.

use crate::ledger::{
    counter_metrics, end_to_end, fnv1a, pool_metrics, quantile, setup, timed_calls, Ledger, Outcome,
};
use ivn_bench::campaign::{run, CampaignOutcome};
use ivn_core::plancache::PlanCache;
use ivn_core::scenario::gen::{generate, GenSpec, JitterSpec, SweepAxis};
use ivn_core::scenario::{
    builtin, FreqPlan, FreqSelSpec, PlacementSpec, QuickFull, Scenario, ScenarioKind,
    ScenarioMetrics,
};
use ivn_dsp::units::dbm_to_watts;
use ivn_rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn_rfid::link::LinkParams;
use ivn_rfid::pie;
use ivn_runtime::json::ToJson;
use ivn_runtime::pool::WorkerPool;
use ivn_runtime::rng::{Rng, StdRng};
use std::time::Instant;

/// Scenarios in the fleet.
const SCENARIOS: usize = 1024;
/// Pool width of the campaign (`nproc` on the reference box).
const WIDTH: usize = 2;
/// Distinct `Optimize` plans in the fleet.
const PLAN_KEYS: u64 = 6;
/// Block size of `scenario::evaluate`'s harvester transient.
const POWER_BLOCK: usize = 1024;

/// The fleet as the JSON texts a campaign directory holds.
fn fleet_texts(seed: u64) -> Vec<String> {
    let mut base = builtin("session").expect("session is a builtin scenario");
    base.seed = base.seed.wrapping_add(seed.wrapping_mul(SCENARIOS as u64));
    let placements = [
        PlacementSpec::WaterTank { depth_m: 0.02 },
        PlacementSpec::WaterTank { depth_m: 0.05 },
        PlacementSpec::WaterTank { depth_m: 0.08 },
        PlacementSpec::WaterTank { depth_m: 0.11 },
        PlacementSpec::MediaBox {
            medium: "muscle".into(),
            depth_m: 0.03,
        },
        PlacementSpec::MediaBox {
            medium: "fat".into(),
            depth_m: 0.06,
        },
        PlacementSpec::MediaBox {
            medium: "skin".into(),
            depth_m: 0.02,
        },
        PlacementSpec::MediaBox {
            medium: "blood".into(),
            depth_m: 0.04,
        },
    ];
    let spec = GenSpec {
        base,
        count: SCENARIOS,
        seed,
        sweeps: vec![SweepAxis {
            path: "placement".into(),
            values: placements.iter().map(ToJson::to_json).collect(),
        }],
        jitters: vec![JitterSpec {
            path: "eirp_dbm".into(),
            frac: 0.05,
        }],
    };
    let mut fleet = generate(&spec).expect("the campaign fleet generates");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b7e_5ca1);
    for s in &mut fleet {
        if rng.random_range(0..8u32) == 0 {
            s.array.plan = FreqPlan::Optimize {
                spec: FreqSelSpec {
                    n_antennas: s.array.n_antennas,
                    rms_limit_hz: 199.0,
                    max_offset_hz: 160,
                    mc_draws: QuickFull::same(16),
                    grid: QuickFull::same(512),
                    restarts: QuickFull::same(2),
                    iterations: QuickFull::same(40),
                },
                seed: seed
                    .wrapping_mul(PLAN_KEYS)
                    .wrapping_add(rng.random_range(0..PLAN_KEYS)),
            };
        }
    }
    fleet.iter().map(Scenario::dump).collect()
}

fn parse(texts: &[String]) -> Vec<Scenario> {
    texts
        .iter()
        .map(|t| Scenario::parse(t).expect("a dumped scenario parses back"))
        .collect()
}

fn run_cold(fleet: &[Scenario], width: usize) -> CampaignOutcome {
    PlanCache::global().clear();
    run(fleet, false, width)
}

/// Checks one campaign call: every scenario evaluated without error
/// and, when `want` is given, equal to that earlier call's metrics.
fn check(out: &mut Outcome, outcome: &CampaignOutcome, want: Option<&[ScenarioMetrics]>) {
    for (name, reason) in &outcome.errors {
        out.check(false, || format!("campaign scenario {name}: {reason}"));
    }
    for (i, m) in outcome.metrics.iter().enumerate() {
        let same = want.is_none_or(|w| w.get(i) == Some(m));
        out.check(same, || {
            format!("campaign metrics of {} changed between calls", m.name)
        });
    }
    let n = outcome.metrics.len() + outcome.errors.len();
    if n != SCENARIOS {
        out.check(false, || {
            format!("campaign evaluated {n} of {SCENARIOS} scenarios")
        });
    }
}

/// Timed run: set-up is fleet generation plus its JSON round trip
/// (median of 15); each call is one `campaign::run` of the fleet.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, fleet) = setup(|| parse(&fleet_texts(seed)));
    let mut first: Option<CampaignOutcome> = None;
    let calls = timed_calls(
        seconds,
        3,
        || run_cold(&fleet, WIDTH),
        |outcome| {
            check(&mut out, &outcome, first.as_ref().map(|f| &f.metrics[..]));
            first.get_or_insert(outcome);
        },
    );
    out.digest = first.map_or(0, |f| fnv1a(f.report().dump().as_bytes()));
    end_to_end(&mut out, setup_s, &calls, SCENARIOS as f64);
    out.notes.push(format!(
        "campaign scenarios_per_s = {:.1} 1/s (reference host)",
        out.metrics[0].1
    ));
    out
}

/// Traced run: the driver at the workload's width (pool and plan-cache
/// counts), the driver on one worker (the untraced reference wall
/// time), then the one-worker replay with every layer call timed.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let texts = fleet_texts(seed);
    let t0 = Instant::now();
    let fleet = parse(&texts);
    out.metric("scenario.parse_s", t0.elapsed().as_secs_f64(), "s");

    let cache = PlanCache::global();
    cache.reset_counters();
    let pool_before = WorkerPool::global().stats();
    let wide = run_cold(&fleet, WIDTH);
    pool_metrics(&mut out, &pool_before, &WorkerPool::global().stats());
    let (hits, misses) = cache.counters();
    out.metric("plancache.hits", hits as f64, "count");
    out.metric("plancache.misses", misses as f64, "count");
    out.metric(
        "plancache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    check(&mut out, &wide, None);

    let t0 = Instant::now();
    let serial = run_cold(&fleet, 1);
    let ref_wall = t0.elapsed().as_secs_f64();
    check(&mut out, &serial, Some(&wide.metrics));

    PlanCache::global().clear();
    ivn_runtime::obs::set_enabled(true);
    let before = ivn_runtime::obs::report();
    let mut ledger = Ledger::default();
    let mut eval_s = Vec::with_capacity(fleet.len());
    let t0 = Instant::now();
    for (s, want) in fleet.iter().zip(&wide.metrics) {
        let t = Instant::now();
        let got = replay(s, &mut ledger);
        eval_s.push(t.elapsed().as_secs_f64());
        out.check(got.as_ref() == Ok(want), || {
            format!("campaign replay of {} differs from the driver", s.name)
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    let counters = ivn_runtime::obs::report().delta(&before);
    ivn_runtime::obs::set_enabled(false);
    out.digest = fnv1a(wide.report().dump().as_bytes());

    out.metric("scenario.eval_busy_s", eval_s.iter().sum(), "s");
    out.metric("scenario.eval_ms_p50", 1e3 * quantile(&eval_s, 0.5), "ms");
    out.metric("scenario.eval_ms_p99", 1e3 * quantile(&eval_s, 0.99), "ms");
    ledger.report(&mut out, wall, ref_wall);
    counter_metrics(&mut out, &counters);
    out
}

/// `scenario::evaluate` for a power-session scenario, call by call, each
/// call booked to its layer. Trials run inline in trial order, as the
/// driver runs them (`par::ensemble_threads(1, ..)`).
fn replay(s: &Scenario, ledger: &mut Ledger) -> Result<ScenarioMetrics, String> {
    let ScenarioKind::PowerSession {
        powerup_rate,
        command_rate,
    } = s.kind
    else {
        return Err(format!("{} is not a power session", s.name));
    };
    let placement = s.placement.resolve().map_err(|e| e.reason)?;
    let cib = ledger.time("freqsel.busy_s", || s.cib(false));
    let tag = s.tag.spec();
    let eirp_w = dbm_to_watts(s.eirp_dbm);
    let trials = s.trial_count(false).max(1);
    let (bits, profile) = ledger.time("rfid.busy_s", || {
        let query = Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            session: Session::S0,
            q: 0,
        };
        let bits = query.encode();
        let runs = pie::encode_frame(
            &bits,
            &LinkParams::paper_defaults().pie,
            query.needs_trcal(),
        );
        (bits, pie::rasterize(&runs, command_rate, 0.0))
    });

    let mut m = ScenarioMetrics {
        name: s.name.clone(),
        trials,
        gains_db: Vec::with_capacity(trials),
        times_to_power_s: Vec::new(),
        powered: 0,
        decoded: 0,
    };
    let root = StdRng::seed_from_u64(s.seed);
    for i in 0..trials {
        let mut rng = root.fork(i as u64);
        let trial = ledger.time("em.draw_busy_s", || {
            placement.draw_trial(&mut rng, cib.n(), &tag, eirp_w, cib.carrier_hz)
        });
        let (envelope, t_peak, peak_amp, amp) = ledger.time("cib.busy_s", || {
            let envelope = cib.envelope_at(&trial.channels);
            let (t_peak, peak_amp) = envelope.peak_over_period(cib.grid);
            let amp = envelope.sample_period(powerup_rate as usize);
            (envelope, t_peak, peak_amp, amp)
        });
        let single_w = trial.channels[0].norm_sqr();
        m.gains_db
            .push(10.0 * (peak_amp * peak_amp / single_w).log10());

        let up = ledger.time("harvester.busy_s", || {
            let mut state = tag.power.begin_power_up(powerup_rate);
            let mut power_block = Vec::with_capacity(POWER_BLOCK);
            for chunk in amp.chunks(POWER_BLOCK) {
                power_block.clear();
                power_block.extend(chunk.iter().map(|a| a * a));
                state.step_block(&power_block);
            }
            state.finish()
        });
        let decoded = up.powered && {
            let tag_env: Vec<f64> = ledger.time("cib.busy_s", || {
                let t_start = t_peak - profile.len() as f64 / command_rate / 2.0;
                profile
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| p * envelope.envelope(t_start + k as f64 / command_rate))
                    .collect()
            });
            ledger.time("rfid.pie_decode_busy_s", || {
                pie::decode_frame(&tag_env, command_rate)
                    .map(|d| d == bits)
                    .unwrap_or(false)
            })
        };
        if let Some(t) = up.time_to_power_s {
            m.times_to_power_s.push(t);
        }
        m.powered += up.powered as usize;
        m.decoded += decoded as usize;
    }
    Ok(m)
}
