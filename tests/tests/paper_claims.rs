//! Smoke-budget checks of each paper artifact's *qualitative* claim,
//! via the shared experiment runners in `naas-bench`. Full-budget numbers
//! come from the `experiments` binary
//! (`cargo run -p naas-bench --release --bin experiments -- all paper`);
//! checking them against the paper's reported values is ROADMAP item 5.
//! These tests pin the direction of every result so regressions in the
//! model or search are caught in CI.

use naas_bench::budget::{Budget, Preset};
use naas_bench::experiments::*;

fn smoke() -> Budget {
    Budget::new(Preset::Smoke)
}

#[test]
fn fig4_evolution_population_improves() {
    // The convergence claim needs enough generations to be non-flaky:
    // use the quick preset (8 iterations) rather than smoke (3).
    let out = fig4::run(&Budget::new(Preset::Quick), 11);
    assert!(out.naas_improves(), "NAAS population mean must decrease");
    // Random search's population mean should stay well above NAAS's
    // final population mean.
    let last = out.points.last().expect("nonempty series");
    assert!(
        last.random_mean > last.naas_mean,
        "random mean {} should exceed NAAS mean {}",
        last.random_mean,
        last.naas_mean
    );
}

#[test]
fn fig5_scenario_never_loses_to_baseline_edp() {
    // One mobile scenario at smoke budget (the full five-scenario run is
    // the experiment binary's job).
    let model = naas_cost::CostModel::new();
    let budget = smoke();
    let nets = [naas_ir::models::squeezenet(224)];
    let s = fig5::run_scenario(&model, &naas_accel::baselines::eyeriss(), &nets, &budget, 3);
    assert!(
        s.rows[0].edp_reduction >= 1.0,
        "NAAS lost to Eyeriss: {:?}",
        s.rows[0]
    );
}

#[test]
fn fig7_showcases_have_valid_cards() {
    let out = fig7::run(&smoke(), 5);
    assert_eq!(out.showcases.len(), 3);
    for s in &out.showcases {
        assert!(s.design_card.contains("Dataflow"));
        assert!((1..=3).contains(&s.ndim));
    }
}

#[test]
fn fig8_naas_at_least_matches_sizing_only() {
    // NAAS's space contains the sizing-only space, but needs a workable
    // search budget to cover it — the quick preset suffices; smoke's
    // 5×3 outer loop does not (13 knobs vs sizing-only's 4).
    let out = fig8::run(&Budget::new(Preset::Quick), 7);
    assert_eq!(out.bars.len(), 4);
    for bar in &out.bars {
        assert!(
            bar.naas_reduction >= bar.sizing_only_reduction * 0.8,
            "NAAS should not materially lose to sizing-only: {bar:?}"
        );
    }
}

#[test]
fn fig10_joint_point_dominates_or_matches() {
    let out = fig10::run(&smoke(), 2);
    assert!(out.points.len() >= 3);
    assert!(out.joint_improves(), "{:?}", out.points);
    // NAAS accel-compiler must improve on the Eyeriss reference.
    let accel = out.point("NAAS (accel-compiler)").expect("point exists");
    assert!(accel.normalized_edp <= 1.0);
}

#[test]
fn table3_naas_wins_edp() {
    let out = table3::run(&smoke(), 4);
    assert!(out.naas_wins_edp(), "{}", out.render());
    // The win must come with a latency win (the paper's mechanism).
    assert!(out.rows[1].latency_cycles < out.rows[0].latency_cycles);
}

#[test]
fn table4_cost_ordering() {
    let out = table4::run(&smoke(), 1);
    assert!(out.saves_120x_vs_nasaic());
    assert!(out.measured_co_search_gd < 0.25);
    assert!(out.measured_evals_per_second > 1000.0);
}
