//! Plain-text reporting: aligned tables (the paper-claims test prints its
//! measurements with [`table`]) and the per-task search forensics the CLI
//! prints after a run.

use crate::run::RunSummary;
use crate::wake::SearchTrace;

/// Render an aligned two-dimensional table. The first row is the header.
pub fn table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(cell);
            for _ in cell.chars().count()..widths[i] + 2 {
                out.push(' ');
            }
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Per-task search forensics for one cycle's wake minibatch, as an
/// aligned table: why each task was or wasn't solved — outcome, nats
/// frontier reached, candidates enumerated/evaluated/typed-out, best
/// log-posterior, and the hit's depth.
pub fn forensics_table(traces: &[SearchTrace]) -> String {
    if traces.is_empty() {
        return String::new();
    }
    let mut rows = vec![vec![
        "task".to_owned(),
        "outcome".to_owned(),
        "nats".to_owned(),
        "enum".to_owned(),
        "eval".to_owned(),
        "typed-out".to_owned(),
        "best logP".to_owned(),
        "depth".to_owned(),
    ]];
    for t in traces {
        rows.push(vec![
            t.task.clone(),
            t.outcome.label().to_owned(),
            format!("{:.1}", t.nats_frontier),
            t.programs_enumerated.to_string(),
            t.programs_evaluated.to_string(),
            t.typed_out.to_string(),
            t.best_log_posterior
                .map_or_else(|| "-".to_owned(), |lp| format!("{lp:.2}")),
            t.hit_depth
                .map_or_else(|| "-".to_owned(), |d| d.to_string()),
        ]);
    }
    table(&rows)
}

/// Forensics across a whole run: one table per cycle that recorded
/// traces, headed by the cycle index.
pub fn forensics_report(summary: &RunSummary) -> String {
    let mut out = String::new();
    for c in &summary.cycles {
        if c.search_traces.is_empty() {
            continue;
        }
        out.push_str(&format!("cycle {}\n", c.cycle));
        out.push_str(&forensics_table(&c.search_traces));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::CycleStats;

    #[test]
    fn table_aligns_columns() {
        let t = table(&[
            vec!["a".into(), "bb".into()],
            vec!["cccc".into(), "d".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3); // header + rule + row
        assert!(lines[1].contains('-'));
    }

    #[test]
    fn forensics_tables_render() {
        use crate::wake::{SearchOutcome, SearchTrace};
        let traces = vec![
            SearchTrace {
                task: "head".into(),
                outcome: SearchOutcome::Solved,
                nats_frontier: 7.5,
                programs_enumerated: 120,
                programs_evaluated: 120,
                typed_out: 44,
                best_log_posterior: Some(-3.25),
                hit_depth: Some(3),
                programs_to_first_hit: Some(17),
                first_hit_nats: Some(6.8),
            },
            SearchTrace {
                task: "impossible".into(),
                outcome: SearchOutcome::BudgetExhausted,
                nats_frontier: 8.0,
                programs_enumerated: 900,
                programs_evaluated: 900,
                typed_out: 310,
                best_log_posterior: None,
                hit_depth: None,
                programs_to_first_hit: None,
                first_hit_nats: None,
            },
        ];
        let t = forensics_table(&traces);
        assert!(t.contains("head"));
        assert!(t.contains("solved"));
        assert!(t.contains("budget"));
        assert!(t.contains("-3.25"));
        assert_eq!(forensics_table(&[]), "");

        let summary = RunSummary {
            condition: "A".to_owned(),
            domain: "test".to_owned(),
            cycles: vec![CycleStats {
                cycle: 0,
                train_solved: 0,
                test_solved: 0.5,
                library_size: 10,
                library_depth: 0,
                new_inventions: vec![],
                search_traces: traces,
            }],
            library: vec![],
            final_test_solved: 0.5,
        };
        let report = forensics_report(&summary);
        assert!(report.contains("cycle 0"));
        assert!(report.contains("impossible"));
    }
}
