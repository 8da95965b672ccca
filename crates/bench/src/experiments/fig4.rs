//! Figure 4: population-mean EDP vs. search iteration, NAAS's evolution
//! strategy against random search.
//!
//! Paper setup: one hardware-design search; the plot shows the average
//! EDP of each generation's candidates (log scale, normalized) staying
//! flat for random search while NAAS's decreases as the sampling
//! distribution tightens around good designs.

use crate::budget::Budget;
use crate::table;
use naas::prelude::*;
use naas::SearchStrategy;
use serde::{Deserialize, Serialize};

/// One plotted series point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Generation (1-based, as in the paper's x-axis).
    pub iteration: usize,
    /// Normalized population-mean EDP of the NAAS run.
    pub naas_mean: f64,
    /// Normalized population-mean EDP of the random-search run.
    pub random_mean: f64,
}

/// Figure 4 result: the two convergence curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4 {
    /// Per-iteration series, normalized to the best EDP NAAS found.
    pub points: Vec<Point>,
    /// Best (unnormalized) EDP of the NAAS run, cycles · nJ.
    pub naas_best_edp: f64,
    /// Best (unnormalized) EDP of the random run.
    pub random_best_edp: f64,
}

/// Runs the Fig. 4 experiment: MobileNetV2 under the Eyeriss envelope.
///
/// Both runs share one [`CoSearchEngine`] (thread pool and memo
/// totals). Each candidate owns its mapping memo, so a design the random
/// walk revisits is searched again — with content-derived seeds, to the
/// same answer.
pub fn run(budget: &Budget, seed: u64) -> Fig4 {
    let model = CostModel::new();
    let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
    let nets = [models::mobilenet_v2(224)];

    let engine = CoSearchEngine::new(0);
    let evo = search_accelerator_with(
        &engine,
        &model,
        &nets,
        &envelope,
        &budget.accel_cfg(seed),
        &[],
        None,
    );
    let rnd_cfg = AccelSearchConfig {
        strategy: SearchStrategy::Random,
        ..budget.accel_cfg(seed)
    };
    let rnd = search_accelerator_with(&engine, &model, &nets, &envelope, &rnd_cfg, &[], None);

    let norm = evo.best.reward;
    let points = evo
        .history
        .iter()
        .zip(&rnd.history)
        .map(|(e, r)| Point {
            iteration: e.iteration + 1,
            naas_mean: e.mean_edp / norm,
            random_mean: r.mean_edp / norm,
        })
        .collect();
    Fig4 {
        points,
        naas_best_edp: evo.best.reward,
        random_best_edp: rnd.best.reward,
    }
}

impl Fig4 {
    /// Paper-style table of the two series.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.iteration.to_string(),
                    format!("{:.2}", p.naas_mean),
                    format!("{:.2}", p.random_mean),
                ]
            })
            .collect();
        let mut out =
            String::from("Fig. 4 — population-mean EDP vs iteration (normalized to NAAS best)\n");
        out.push_str(&table::render(&["iter", "NAAS mean", "Random mean"], &rows));
        out.push_str(&format!(
            "best EDP: NAAS {} vs Random {} ({})\n",
            table::sci(self.naas_best_edp),
            table::sci(self.random_best_edp),
            table::ratio(self.random_best_edp / self.naas_best_edp)
        ));
        out
    }

    /// The paper's qualitative claim: the evolution's population improves
    /// over the run while random stays (statistically) flat.
    pub fn naas_improves(&self) -> bool {
        let first = self.points.first().map(|p| p.naas_mean).unwrap_or(1.0);
        let last = self.points.last().map(|p| p.naas_mean).unwrap_or(1.0);
        last < first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Preset;

    #[test]
    fn smoke_run_produces_series() {
        let out = run(&Budget::new(Preset::Smoke), 3);
        assert_eq!(out.points.len(), 3);
        assert!(out.naas_best_edp > 0.0);
        let text = out.render();
        assert!(text.contains("Fig. 4"));
    }
}
