//! Table II — sensitivity of NEWST to the number of initial seed papers.
//!
//! The paper sweeps the seed count over {10, 15, 20, 25, 30, 40, 50} and
//! reports F1 and precision: F1 rises steadily with more seeds, while
//! precision saturates and eventually dips when too many seeds inject noise.

use crate::benchmark::{collect_lists, RepagerMethod};
use crate::experiments::ExperimentContext;
use crate::report::{fmt4, format_table};
use rpg_corpus::LabelLevel;
use rpg_repager::{RepagerConfig, Variant};
use serde::{Deserialize, Serialize};

/// One row of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedCountRow {
    /// Number of initial seed papers.
    pub seed_count: usize,
    /// Mean F1 at the evaluation K.
    pub f1: f64,
    /// Mean precision at the evaluation K.
    pub precision: f64,
}

/// The Table II report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table2Report {
    /// One row per seed count, in the order evaluated.
    pub rows: Vec<SeedCountRow>,
    /// The K at which scores are computed.
    pub k: usize,
    /// Ground-truth level used.
    pub level: String,
    /// Number of surveys evaluated.
    pub surveys_evaluated: usize,
}

/// Runs the seed-count sweep at a fixed K and label level (the paper's main
/// operating point is K = 30 with the full reference list as truth).
pub fn run(
    ctx: &ExperimentContext<'_>,
    seed_counts: &[usize],
    k: usize,
    level: LabelLevel,
) -> Table2Report {
    let mut rows = Vec::with_capacity(seed_counts.len());
    for &seed_count in seed_counts {
        let method = RepagerMethod::variant(
            &ctx.artifacts,
            Variant::Newst,
            RepagerConfig::default().with_seed_count(seed_count),
        );
        let lists = collect_lists(ctx.corpus, &ctx.set, &method, k, ctx.threads);
        let scores = lists.scores_at(&ctx.set, k, level);
        rows.push(SeedCountRow {
            seed_count,
            f1: scores.f1,
            precision: scores.precision,
        });
    }
    Table2Report {
        rows,
        k,
        level: level.name().to_string(),
        surveys_evaluated: ctx.set.len(),
    }
}

/// Formats the report in the layout of Table II.
pub fn format(report: &Table2Report) -> String {
    let mut header = vec!["#seed nodes".to_string()];
    header.extend(report.rows.iter().map(|r| r.seed_count.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let f1_row: Vec<String> = std::iter::once("F1 score".to_string())
        .chain(report.rows.iter().map(|r| fmt4(r.f1)))
        .collect();
    let p_row: Vec<String> = std::iter::once("Precision".to_string())
        .chain(report.rows.iter().map(|r| fmt4(r.precision)))
        .collect();
    format_table(
        &format!(
            "Table II — impact of the number of seed nodes (K={}, {}, {} surveys)",
            report.k, report.level, report.surveys_evaluated
        ),
        &header_refs,
        &[f1_row, p_row],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::test_corpus;

    #[test]
    fn more_seeds_help_f1_on_average() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, &[10, 30], 30, LabelLevel::AtLeastOne);
        assert_eq!(report.rows.len(), 2);
        let few = report.rows[0];
        let many = report.rows[1];
        assert_eq!(few.seed_count, 10);
        assert_eq!(many.seed_count, 30);
        // The paper's trend: F1 rises with the seed count.  Allow a small
        // tolerance for the tiny test corpus.
        assert!(
            many.f1 + 0.03 >= few.f1,
            "F1 with 30 seeds ({:.4}) collapsed versus 10 seeds ({:.4})",
            many.f1,
            few.f1
        );
    }

    #[test]
    fn scores_are_valid_and_formatting_lists_all_columns() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, &[15, 25], 20, LabelLevel::AtLeastTwo);
        for row in &report.rows {
            assert!((0.0..=1.0).contains(&row.f1));
            assert!((0.0..=1.0).contains(&row.precision));
        }
        let text = format(&report);
        assert!(text.contains("Table II"));
        assert!(text.contains("15"));
        assert!(text.contains("25"));
        assert!(text.contains("F1 score"));
        assert!(text.contains("Precision"));
    }
}
