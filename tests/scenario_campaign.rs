//! Mass-campaign determinism at scale: a generated fleet of 1000
//! scenarios written to disk, loaded back, and run through the campaign
//! driver — the full report must be byte-identical at 1, 2 and 8 worker
//! threads, and stable across repeat runs.

use ivn_bench::campaign;
use ivn_core::scenario::{builtin, gen, QuickFull, Scenario};
use ivn_runtime::json::Json;
use std::path::PathBuf;

/// A 1000-scenario fleet cheap enough for CI: one trial per scenario,
/// swept over tank depth and tag kind with jittered EIRP.
fn fleet_spec() -> gen::GenSpec {
    let mut base = builtin("session").expect("builtin");
    base.trials = QuickFull::same(1);
    gen::GenSpec {
        base,
        count: 1000,
        seed: 2026,
        sweeps: vec![
            gen::SweepAxis {
                path: "placement.depth_m".into(),
                values: [0.02, 0.04, 0.06, 0.08, 0.10]
                    .iter()
                    .map(|&d| Json::Num(d))
                    .collect(),
            },
            gen::SweepAxis {
                path: "tag".into(),
                values: vec![Json::Str("standard".into()), Json::Str("miniature".into())],
            },
        ],
        jitters: vec![gen::JitterSpec {
            path: "eirp_dbm".into(),
            frac: 0.03,
        }],
    }
}

#[test]
fn thousand_scenario_campaign_is_thread_invariant() {
    let fleet = gen::generate(&fleet_spec()).expect("generate");
    assert_eq!(fleet.len(), 1000);

    // Round-trip through disk exactly like `reproduce generate` +
    // `reproduce campaign <dir>` would.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scenario-campaign-1000");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for s in &fleet {
        std::fs::write(dir.join(format!("{}.json", s.name)), s.dump() + "\n").unwrap();
    }
    let loaded = campaign::load_dir(&dir).expect("load_dir");
    assert_eq!(loaded.len(), fleet.len());

    let reports: Vec<String> = [1, 2, 8]
        .iter()
        .map(|&t| campaign::run(&loaded, true, t).report().dump())
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 threads diverged");
    assert_eq!(reports[1], reports[2], "2 vs 8 threads diverged");

    // Repeat run from the same inputs: bit-identical again.
    let again = campaign::run(&loaded, true, 8).report().dump();
    assert_eq!(reports[2], again, "re-run diverged");

    // Sanity on content: everything evaluated, nothing errored, and the
    // aggregate carries real distributions.
    let outcome = campaign::run(&loaded, true, 8);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.metrics.len(), 1000);
    let agg = outcome.aggregate();
    assert_eq!(agg.get("evaluated"), Some(&Json::Num(1000.0)));
    assert!(matches!(agg.get("gain_db_median"), Some(Json::Obj(_))));
    assert!(matches!(agg.get("powered_frac"), Some(Json::Obj(_))));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generated_fleet_is_seed_stable_and_valid() {
    let a = gen::generate(&fleet_spec()).unwrap();
    let b = gen::generate(&fleet_spec()).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.dump(), y.dump());
    }
    // Every generated file is a valid scenario on its own.
    for s in a.iter().take(50) {
        let round = Scenario::parse(&s.dump()).unwrap();
        assert_eq!(round.dump(), s.dump());
    }
    // The grid actually varies the swept fields.
    let depths: std::collections::BTreeSet<String> = a
        .iter()
        .take(10)
        .map(|s| format!("{:?}", s.placement))
        .collect();
    assert!(
        depths.len() >= 5,
        "sweep did not vary placement: {depths:?}"
    );
}

#[test]
fn invalid_session_rates_are_listed_as_errors_not_panics() {
    // A power-up rate below 1 S/s leaves an empty power-up grid, and a
    // non-positive command rate cannot key a Query: both parse, and both
    // must come back from the campaign as per-scenario errors while the
    // valid scenario beside them still evaluates.
    let good = builtin("session").expect("builtin");
    let mut fleet = vec![good.clone()];
    for (i, (powerup_rate, command_rate)) in [
        (0.5, 400e3),
        (0.0, 400e3),
        (-1.0, 400e3),
        (2048.0, 0.0),
        (2048.0, -1.0),
    ]
    .into_iter()
    .enumerate()
    {
        let text = good
            .with_name(&format!("bad{i}"))
            .dump()
            .replace(
                "\"powerup_rate\":2048",
                &format!("\"powerup_rate\":{powerup_rate}"),
            )
            .replace(
                "\"command_rate\":400000",
                &format!("\"command_rate\":{command_rate}"),
            );
        let s = Scenario::parse(&text).unwrap_or_else(|e| panic!("bad{i}: {}", e.reason));
        assert_eq!(
            s.kind,
            ivn_core::scenario::ScenarioKind::PowerSession {
                powerup_rate,
                command_rate
            },
            "bad{i} did not carry its rates through the JSON"
        );
        fleet.push(s);
    }
    let out = campaign::run(&fleet, true, 2);
    assert_eq!(out.metrics.len(), 1);
    assert_eq!(out.metrics[0].name, "session");
    let names: Vec<&str> = out.errors.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["bad0", "bad1", "bad2", "bad3", "bad4"]);
    for (name, reason) in &out.errors[..3] {
        assert!(reason.contains("powerup_rate"), "{name}: {reason}");
    }
    for (name, reason) in &out.errors[3..] {
        assert!(reason.contains("command_rate"), "{name}: {reason}");
    }
}
