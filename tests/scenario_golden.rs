//! Golden pin for the scenario refactor: every `reproduce` figure
//! target, rendered through the scenario registry, must be
//! byte-identical to the output captured before the experiment layer
//! moved onto the `Scenario` substrate (tests/golden/figures/).
//!
//! Regenerate a file after an *intentional* output change with:
//! `cargo run --release --bin reproduce -- <target> --quick > tests/golden/figures/<target>.quick.txt`

use std::path::PathBuf;

fn golden(target: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/figures")
        .join(format!("{target}.quick.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check(target: &str) {
    let s = ivn_bench::registry::builtin(target)
        .unwrap_or_else(|| panic!("no builtin scenario for {target}"));
    let now = ivn_bench::registry::render(&s, true).expect(target);
    let want = golden(target);
    assert_eq!(
        now, want,
        "`reproduce {target} --quick` diverged from the pre-refactor golden bytes"
    );
}

// One test per target so a divergence names the figure directly and the
// suite parallelizes across the harness' test threads.

#[test]
fn golden_fig2() {
    check("fig2");
}

#[test]
fn golden_fig3() {
    check("fig3");
}

#[test]
fn golden_fig4() {
    check("fig4");
}

#[test]
fn golden_fig6() {
    check("fig6");
}

#[test]
fn golden_fig9() {
    check("fig9");
}

#[test]
fn golden_fig10() {
    check("fig10");
}

#[test]
fn golden_fig11() {
    check("fig11");
}

#[test]
fn golden_fig12() {
    check("fig12");
}

#[test]
fn golden_fig13() {
    check("fig13");
}

#[test]
fn golden_invivo() {
    check("invivo");
}

#[test]
fn golden_freqs() {
    check("freqs");
}

#[test]
fn golden_ablations() {
    check("ablations");
}

#[test]
fn golden_pipeline() {
    check("pipeline");
}

#[test]
fn golden_export_round_trip() {
    // Scenario JSON is byte-stable under export → parse → export: the
    // contract behind `reproduce export` and campaign re-runs.
    for name in ivn_bench::registry::builtin_names() {
        let s = ivn_bench::registry::builtin(name).unwrap();
        let once = s.dump();
        let twice = ivn_core::scenario::Scenario::parse(&once)
            .unwrap_or_else(|e| panic!("{name}: {}", e.reason))
            .dump();
        assert_eq!(once, twice, "{name} export not byte-stable");
    }
}

// ---------------------------------------------------------------------
// Campaign golden: full-precision `ScenarioMetrics` of
// `scenario::evaluate` over the benchmark fleet's placements
// (tests/golden/campaign/). Each file is the metrics' `{:#?}` form —
// Rust's `f64` Debug output is the shortest string that parses back to
// the same bits, so the pin is bit-exact. A mismatch prints the fresh
// rendering; re-pin only after an intentional output change.
// ---------------------------------------------------------------------

use ivn_core::scenario::{
    builtin, evaluate, ArraySpec, FreqPlan, FreqSelSpec, PlacementSpec, QuickFull, Scenario,
    ScenarioKind, TagKind,
};

/// The eight placements of the campaign benchmark fleet: four water-tank
/// depths and four Fig. 11 media boxes.
fn fleet_placements() -> Vec<(&'static str, PlacementSpec)> {
    let tank = |depth_m| PlacementSpec::WaterTank { depth_m };
    let media = |medium: &str, depth_m| PlacementSpec::MediaBox {
        medium: medium.into(),
        depth_m,
    };
    vec![
        ("tank02", tank(0.02)),
        ("tank05", tank(0.05)),
        ("tank08", tank(0.08)),
        ("tank11", tank(0.11)),
        ("muscle03", media("muscle", 0.03)),
        ("fat06", media("fat", 0.06)),
        ("skin02", media("skin", 0.02)),
        ("blood04", media("blood", 0.04)),
    ]
}

/// The benchmark fleet's `Optimize` plan for an 8-antenna array.
fn optimize_plan(n_antennas: usize) -> FreqPlan {
    FreqPlan::Optimize {
        spec: FreqSelSpec {
            n_antennas,
            rms_limit_hz: 199.0,
            max_offset_hz: 160,
            mc_draws: QuickFull::same(16),
            grid: QuickFull::same(512),
            restarts: QuickFull::same(2),
            iterations: QuickFull::same(40),
        },
        seed: 3,
    }
}

/// The `session` builtin at one fleet placement under `plan`, seeded
/// per placement so every file draws its own channels.
fn session_at(tag: &str, placement: PlacementSpec, plan: FreqPlan, i: u64) -> Scenario {
    let mut s = builtin("session").expect("session is a builtin scenario");
    s.name = tag.to_string();
    s.seed = s.seed.wrapping_add(i);
    s.placement = placement;
    s.array.plan = plan;
    s
}

fn check_campaign(s: &Scenario) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/campaign")
        .join(format!("{}.txt", s.name));
    let m = evaluate(s, false).unwrap_or_else(|e| panic!("{}: {e}", s.name));
    let now = format!("{m:#?}\n");
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        now == want,
        "evaluate({}) diverged from {}; now:\n{now}",
        s.name,
        path.display()
    );
}

#[test]
fn golden_campaign_paper_plan() {
    for (i, (tag, placement)) in fleet_placements().into_iter().enumerate() {
        let name = format!("{tag}-paper");
        check_campaign(&session_at(&name, placement, FreqPlan::Paper, i as u64));
    }
}

#[test]
fn golden_campaign_optimize_plan() {
    for (i, (tag, placement)) in fleet_placements().into_iter().enumerate() {
        let name = format!("{tag}-optimize");
        check_campaign(&session_at(
            &name,
            placement,
            optimize_plan(8),
            100 + i as u64,
        ));
    }
}

#[test]
fn golden_campaign_fft_path() {
    // Ten tones on a 256-point peak grid and a 512 S/s power-up grid:
    // both exceed log₂(grid), so the peak search and the power-up
    // transient sample the period through the sparse-spectrum FFT.
    let mut s = session_at(
        "tank05-fft",
        PlacementSpec::WaterTank { depth_m: 0.05 },
        FreqPlan::Paper,
        200,
    );
    s.array = ArraySpec {
        grid: 256,
        ..ArraySpec::paper(10)
    };
    s.kind = ScenarioKind::PowerSession {
        powerup_rate: 512.0,
        command_rate: 400e3,
    };
    check_campaign(&s);
}

#[test]
fn golden_campaign_marginal_tag() {
    // The miniature tag at the fleet's placements: a mix of trials that
    // never wake (the whole period integrated) and trials that do.
    for (i, (tag, placement)) in fleet_placements().into_iter().enumerate() {
        let name = format!("{tag}-miniature");
        let mut s = session_at(&name, placement, FreqPlan::Paper, 300 + i as u64);
        s.tag = TagKind::Miniature;
        check_campaign(&s);
    }
}
