//! Figure 5: speedup and energy saving of the NAAS-searched design over
//! each baseline, with one search per resource envelope rewarded by the
//! geomean EDP across the benchmark set.
//!
//! Large-model set {VGG16, ResNet50, UNet} under {EdgeTPU, NVDLA-1024};
//! mobile set {MobileNetV2, SqueezeNet, MNasNet} under
//! {Eyeriss, NVDLA-256, ShiDianNao}. Baselines keep their canonical
//! dataflow but receive the same per-layer mapping search (the comparison
//! isolates architecture quality).

use crate::budget::Budget;
use crate::table;
use naas::baselines::heuristic_network_cost;
use naas::geomean;
use naas::prelude::*;
use serde::{Deserialize, Serialize};

/// Per-network comparison of the searched design against a baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetRow {
    /// Network name.
    pub network: String,
    /// Baseline latency / NAAS latency.
    pub speedup: f64,
    /// Baseline energy / NAAS energy.
    pub energy_saving: f64,
    /// Baseline EDP / NAAS EDP.
    pub edp_reduction: f64,
}

/// One deployment scenario (one baseline envelope).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Baseline design name (the envelope source).
    pub baseline: String,
    /// The searched design's card (Fig. 7 format).
    pub design_card: String,
    /// Per-network rows.
    pub rows: Vec<NetRow>,
    /// Geomean speedup across the set.
    pub geomean_speedup: f64,
    /// Geomean energy saving across the set.
    pub geomean_energy: f64,
}

/// Figure 5 result: all five scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5 {
    /// Scenarios in the paper's order.
    pub scenarios: Vec<Scenario>,
}

/// Runs one scenario: NAAS multi-network search within `baseline`'s
/// envelope, compared per network against the baseline itself.
///
/// The baseline comparison runs on the same engine as the search. Each
/// network's baseline cost is one fresh mapping search per layer shape
/// (no memo outlives its candidate); its content-derived seeds make it
/// exactly the cost the search computed when the baseline was the
/// warm-start seed of generation 0.
pub fn run_scenario(
    model: &CostModel,
    baseline: &Accelerator,
    networks: &[Network],
    budget: &Budget,
    seed: u64,
) -> Scenario {
    let envelope = ResourceConstraint::from_design(baseline);
    let engine = CoSearchEngine::new(0);
    let result = search_accelerator_with(
        &engine,
        model,
        networks,
        &envelope,
        &budget.accel_cfg(seed),
        std::slice::from_ref(baseline),
        None,
    );

    let mut rows = Vec::with_capacity(networks.len());
    for (net, naas_cost) in networks.iter().zip(&result.best.per_network) {
        let base = network_mapping_search_cached(
            model,
            net,
            baseline,
            &budget.mapping_cfg(seed),
            engine.cache(),
        )
        .or_else(|| heuristic_network_cost(model, net, baseline))
        .expect("baseline designs can run the paper benchmarks");
        rows.push(NetRow {
            network: net.name().to_string(),
            speedup: base.cycles() as f64 / naas_cost.cycles() as f64,
            energy_saving: base.energy_pj() / naas_cost.energy_pj(),
            edp_reduction: base.edp() / naas_cost.edp(),
        });
    }
    let geomean_speedup = geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
    let geomean_energy = geomean(&rows.iter().map(|r| r.energy_saving).collect::<Vec<_>>());
    Scenario {
        baseline: baseline.name().to_string(),
        design_card: result.best.accelerator.design_card(),
        rows,
        geomean_speedup,
        geomean_energy,
    }
}

/// Runs all five scenarios of Fig. 5.
pub fn run(budget: &Budget, seed: u64) -> Fig5 {
    let model = CostModel::new();
    let large = models::large_benchmarks();
    let mobile = models::mobile_benchmarks();

    let mut scenarios = Vec::new();
    for (i, baseline) in [baselines::edge_tpu(), baselines::nvdla_1024()]
        .into_iter()
        .enumerate()
    {
        scenarios.push(run_scenario(
            &model,
            &baseline,
            &large,
            budget,
            seed + i as u64,
        ));
    }
    for (i, baseline) in [
        baselines::eyeriss(),
        baselines::nvdla_256(),
        baselines::shidiannao(),
    ]
    .into_iter()
    .enumerate()
    {
        scenarios.push(run_scenario(
            &model,
            &baseline,
            &mobile,
            budget,
            seed + 10 + i as u64,
        ));
    }
    Fig5 { scenarios }
}

impl Fig5 {
    /// Paper-style rendering: one block per scenario.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 5 — NAAS vs baselines (multi-network geomean reward)\n\n");
        for s in &self.scenarios {
            out.push_str(&format!("== within {} resources ==\n", s.baseline));
            let rows: Vec<Vec<String>> = s
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.network.clone(),
                        table::ratio(r.speedup),
                        table::ratio(r.energy_saving),
                        table::ratio(r.edp_reduction),
                    ]
                })
                .chain(std::iter::once(vec![
                    "geomean".to_string(),
                    table::ratio(s.geomean_speedup),
                    table::ratio(s.geomean_energy),
                    String::new(),
                ]))
                .collect();
            out.push_str(&table::render(
                &["network", "speedup", "energy saving", "EDP reduction"],
                &rows,
            ));
            out.push('\n');
        }
        out
    }

    /// The headline claim of Fig. 5: NAAS never loses to a baseline on
    /// geomean EDP within that baseline's own envelope.
    pub fn never_worse(&self) -> bool {
        self.scenarios
            .iter()
            .all(|s| s.geomean_speedup * s.geomean_energy >= 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Preset;

    #[test]
    fn single_scenario_smoke() {
        let model = CostModel::new();
        let budget = Budget::new(Preset::Smoke);
        let nets = [models::mobilenet_v2(224)];
        let s = run_scenario(&model, &baselines::eyeriss(), &nets, &budget, 5);
        assert_eq!(s.rows.len(), 1);
        assert!(s.rows[0].speedup > 0.0);
        assert!(s.design_card.contains("Array Size"));
    }
}
