//! Fig. 2 — the observation study.
//!
//! For the highest-scoring surveys, compare the engine's top-30 / top-50
//! results (0th order) and their 1st- and 2nd-order citation neighbourhoods
//! against the survey's reference lists at the three occurrence levels.  The
//! paper's observation: the 0th-order overlap is low (Observation I) and
//! grows sharply with neighbourhood order (Observation II).

use crate::experiments::ExperimentContext;
use crate::metrics::{mean, overlap_ratio};
use crate::report::format_table;
use rpg_corpus::{LabelLevel, PaperId};
use rpg_engines::Query;
use rpg_graph::traversal::{expand, Direction};
use serde::{Deserialize, Serialize};

/// Overlap ratios for one seed-count setting (TOP 30 or TOP 50).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OverlapByOrder {
    /// The number of initial seed papers (30 or 50).
    pub top_k: usize,
    /// `ratios[order][level]` = mean overlap ratio for neighbourhood order
    /// 0/1/2 and label level L1/L2/L3.
    pub ratios: [[f64; 3]; 3],
}

/// The Fig. 2 report: one panel per TOP-K setting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig2Report {
    /// One entry per requested seed count (the paper uses 30 and 50).
    pub panels: Vec<OverlapByOrder>,
    /// Number of surveys the ratios are averaged over.
    pub surveys_evaluated: usize,
}

/// Runs the observation study for the given seed counts (the paper uses
/// `[30, 50]`) over the `survey_limit` highest-scoring surveys of the
/// evaluation set.
pub fn run(ctx: &ExperimentContext<'_>, seed_counts: &[usize], survey_limit: usize) -> Fig2Report {
    let corpus = ctx.corpus;
    let surveys: Vec<_> = ctx.set.surveys.iter().take(survey_limit).collect();
    let mut panels = Vec::with_capacity(seed_counts.len());

    for &top_k in seed_counts {
        // per (order, level) list of per-survey ratios
        let mut samples: [[Vec<f64>; 3]; 3] = Default::default();
        for survey in &surveys {
            let exclude = [survey.paper];
            let seeds = ctx.artifacts.scholar().seed_papers(&Query {
                text: &survey.query,
                top_k,
                max_year: Some(survey.year),
                exclude: &exclude,
            });
            if seeds.is_empty() {
                continue;
            }
            let seed_nodes: Vec<_> = seeds.iter().map(|p| p.node()).collect();
            let expansion = expand(corpus.graph(), &seed_nodes, 2, Direction::References)
                .expect("seeds are valid corpus papers");
            for (order_index, order) in (0u8..=2).enumerate() {
                let candidates: Vec<PaperId> = expansion
                    .within(order)
                    .into_iter()
                    .map(PaperId::from_node)
                    .filter(|&p| p != survey.paper && corpus.year(p) <= survey.year)
                    .collect();
                for (level_index, level) in LabelLevel::ALL.iter().enumerate() {
                    let truth = survey.label(*level);
                    samples[order_index][level_index].push(overlap_ratio(&candidates, &truth));
                }
            }
        }
        let mut ratios = [[0.0; 3]; 3];
        for order in 0..3 {
            for level in 0..3 {
                ratios[order][level] = mean(&samples[order][level]);
            }
        }
        panels.push(OverlapByOrder { top_k, ratios });
    }

    Fig2Report {
        panels,
        surveys_evaluated: surveys.len(),
    }
}

/// Formats the report as the two panels of Fig. 2.
pub fn format(report: &Fig2Report) -> String {
    let mut out = String::new();
    for panel in &report.panels {
        let rows: Vec<Vec<String>> = (0..3)
            .map(|order| {
                let mut row = vec![format!("{order} order")];
                for level in 0..3 {
                    row.push(format!("{:.4}", panel.ratios[order][level]));
                }
                row
            })
            .collect();
        out.push_str(&format_table(
            &format!(
                "Fig. 2 — overlap ratio, TOP {} ({} surveys)",
                panel.top_k, report.surveys_evaluated
            ),
            &["Order", "#occ >= 1", "#occ >= 2", "#occ >= 3"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::test_corpus;

    #[test]
    fn overlap_grows_with_neighbourhood_order() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, &[30], 6);
        assert_eq!(report.panels.len(), 1);
        let panel = &report.panels[0];
        assert_eq!(panel.top_k, 30);
        for level in 0..3 {
            assert!(
                panel.ratios[2][level] >= panel.ratios[0][level],
                "2nd-order overlap must not be below 0th-order (level {level})"
            );
            assert!(
                panel.ratios[1][level] >= panel.ratios[0][level],
                "1st-order overlap must not be below 0th-order (level {level})"
            );
        }
        // Observation II: the growth must be substantial for the full list.
        assert!(
            panel.ratios[2][0] > panel.ratios[0][0] + 0.05,
            "expansion gained too little: {:?}",
            panel.ratios
        );
    }

    #[test]
    fn zero_order_overlap_is_partial() {
        // Observation I: the engine's direct results miss a large part of the
        // reference list.
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, &[30], 6);
        assert!(report.panels[0].ratios[0][0] < 0.9);
    }

    #[test]
    fn larger_seed_count_does_not_reduce_overlap() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, &[30, 50], 5);
        assert_eq!(report.panels.len(), 2);
        let top30 = &report.panels[0];
        let top50 = &report.panels[1];
        assert!(top50.ratios[0][0] + 1e-9 >= top30.ratios[0][0] - 0.05);
    }

    #[test]
    fn formatting_contains_all_orders_and_levels() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, &[30], 3);
        let text = format(&report);
        assert!(text.contains("TOP 30"));
        assert!(text.contains("0 order"));
        assert!(text.contains("2 order"));
        assert!(text.contains("#occ >= 3"));
    }

    #[test]
    fn ratios_are_valid_probabilities() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, &[30], 4);
        for panel in &report.panels {
            for order in 0..3 {
                for level in 0..3 {
                    let r = panel.ratios[order][level];
                    assert!((0.0..=1.0).contains(&r), "ratio {r} out of range");
                }
            }
        }
    }
}
