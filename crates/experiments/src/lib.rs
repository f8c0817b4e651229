//! Experiment harnesses reproducing every table and figure of the paper's
//! evaluation.
//!
//! Each public `run_*` function builds the appropriate simulated world, runs
//! the measurement methodology against it, and returns a plain-text report
//! whose rows/series correspond to the paper's table or figure. The
//! `src/bin/` binaries are thin wrappers that print these reports;
//! `run_all` executes every experiment in sequence. EXPERIMENTS.md in the
//! repository root records the paper-reported values next to the values
//! these harnesses produce.
//!
//! Scale: experiments default to [`Scale::Experiment`] (1/16 of the paper's
//! /48 counts). Set the environment variable `SCENT_SCALE=small` for a much
//! faster, smaller run (used by CI and the benches), and `SCENT_DAYS` to
//! override the campaign length (default 14 days, paper: 44).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod tables;

pub use campaign::Scale;

/// One experiment: its name and the runner producing its plain-text report.
pub(crate) type NamedExperiment = (&'static str, fn() -> String);

/// Every experiment, as `(name, runner)` pairs, in the order `run_all`
/// executes them.
pub fn all_experiments() -> Vec<NamedExperiment> {
    vec![
        ("table1", tables::run_table1 as fn() -> String),
        ("table2", tables::run_table2),
        ("pipeline_counts", tables::run_pipeline_counts),
        ("campaign_totals", tables::run_campaign_totals),
        ("fig3", figures::run_fig3),
        ("fig4", figures::run_fig4),
        ("fig5", figures::run_fig5),
        ("fig6", figures::run_fig6),
        ("fig7", figures::run_fig7),
        ("fig8", figures::run_fig8),
        ("fig9", figures::run_fig9),
        ("fig10", figures::run_fig10),
        ("fig11", figures::run_fig11),
        ("fig12", figures::run_fig12),
        ("fig13", figures::run_fig13),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_registry_is_complete() {
        let names: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
        // Two tables, eleven figures (3–13), and the two prose-count
        // experiments.
        assert_eq!(names.len(), 15);
        for figure in 3..=13 {
            assert!(names.contains(&format!("fig{figure}").as_str()));
        }
        assert!(names.contains(&"table1"));
        assert!(names.contains(&"table2"));
    }
}
