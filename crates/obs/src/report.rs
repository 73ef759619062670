//! The `budget` report schema: canonical JSON line + human text table.
//!
//! `psdacc-core`'s noise budget attributes an evaluate-path power number
//! across the nodes that produced it. This module is the presentation
//! layer every consumer shares: the engine embeds the rows in a `budget`
//! job-result line, and the CLI / CI render either the canonical
//! [`BudgetReport::to_json_line`] (machine diffable — byte-identical
//! across local and fleet execution) or the ranked
//! [`BudgetReport::to_text`] table with top-K rows and cumulative share.
//!
//! The crate stays dependency-free: the report is plain data, built
//! either directly or by parsing an engine result line
//! ([`BudgetReport::from_result_line`]).

use crate::json::{self, Json, JsonWriter};

/// One attributed node of a [`BudgetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReportRow {
    /// Node index in the scenario's graph.
    pub node: u64,
    /// Block kind (`fir`, `iir`, `gain`, `input`, ...).
    pub block: String,
    /// `auto` (injects noise) or `exact` (exempted, contributes zero).
    pub role: String,
    /// Fractional bits of the node's quantizer (`None` for exact rows).
    pub frac_bits: Option<i64>,
    /// Output-referred spectral mass of the source.
    pub variance_term: f64,
    /// Bilinear mean attribution (`mu_i * M`; the terms sum to `M^2`).
    pub mean_term: f64,
    /// Ledger entry — the column folds bit-exactly to the report power.
    pub contribution: f64,
    /// `contribution / power`.
    pub share: f64,
}

impl BudgetReportRow {
    /// Canonical JSON object for the row (fixed field order).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_u64("node", self.node);
        w.field_str("block", &self.block);
        w.field_str("role", &self.role);
        if let Some(bits) = self.frac_bits {
            w.field_i64("bits", bits);
        }
        w.field_f64("variance_term", self.variance_term);
        w.field_f64("mean_term", self.mean_term);
        w.field_f64("contribution", self.contribution);
        w.field_f64("share", self.share);
        w.finish()
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let req_f64 = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("budget row needs a number `{key}`"))
        };
        Ok(BudgetReportRow {
            node: value
                .get("node")
                .and_then(Json::as_u64)
                .ok_or_else(|| "budget row needs an integer `node`".to_string())?,
            block: value
                .get("block")
                .and_then(Json::as_str)
                .ok_or_else(|| "budget row needs a string `block`".to_string())?
                .to_string(),
            role: value
                .get("role")
                .and_then(Json::as_str)
                .ok_or_else(|| "budget row needs a string `role`".to_string())?
                .to_string(),
            frac_bits: value.get("bits").and_then(Json::as_i64),
            variance_term: req_f64("variance_term")?,
            mean_term: req_f64("mean_term")?,
            contribution: req_f64("contribution")?,
            share: req_f64("share")?,
        })
    }
}

/// A noise-budget report for one `(scenario, npsd, bits)` evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    /// Canonical scenario key.
    pub scenario: String,
    /// PSD grid size.
    pub npsd: u64,
    /// Uniform fractional bits of the evaluated plan.
    pub frac_bits: i64,
    /// Total output noise power (the evaluate-path value, bit-exact).
    pub power: f64,
    /// Total output noise mean.
    pub mean: f64,
    /// Total output noise variance.
    pub variance: f64,
    /// Attribution rows in ledger order (fold reproduces `power`).
    pub rows: Vec<BudgetReportRow>,
}

impl BudgetReport {
    /// Builds the report from an engine `budget` job-result line (a JSON
    /// object with `"kind":"budget"` and a `budget` rows array).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing or mistyped field.
    pub fn from_result_line(line: &str) -> Result<Self, String> {
        let value = json::parse(line)?;
        match value.get("kind").and_then(Json::as_str) {
            Some("budget") => {}
            Some(other) => return Err(format!("not a budget result (kind `{other}`)")),
            None => return Err("result line has no `kind`".to_string()),
        }
        let req_f64 = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("budget result needs a number `{key}`"))
        };
        let scenario = value
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| "budget result needs a string `scenario`".to_string())?
            .to_string();
        let npsd = value
            .get("npsd")
            .and_then(Json::as_u64)
            .ok_or_else(|| "budget result needs an integer `npsd`".to_string())?;
        let frac_bits = value
            .get("frac_bits")
            .and_then(Json::as_i64)
            .ok_or_else(|| "budget result needs an integer `frac_bits`".to_string())?;
        let power = req_f64("power")?;
        let mean = req_f64("mean")?;
        let variance = req_f64("variance")?;
        let rows = value
            .get("budget")
            .and_then(Json::as_array)
            .ok_or_else(|| "budget result needs a `budget` rows array".to_string())?
            .iter()
            .map(BudgetReportRow::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BudgetReport { scenario, npsd, frac_bits, power, mean, variance, rows })
    }

    /// Canonical single-line JSON of the whole report
    /// (`"kind":"budget_report"`, fixed field order) — the wire/artifact
    /// form, byte-stable for identity diffs.
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_str("kind", "budget_report");
        w.field_str("scenario", &self.scenario);
        w.field_u64("npsd", self.npsd);
        w.field_i64("frac_bits", self.frac_bits);
        w.field_f64("power", self.power);
        w.field_f64("mean", self.mean);
        w.field_f64("variance", self.variance);
        let rows: Vec<String> = self.rows.iter().map(BudgetReportRow::to_json).collect();
        w.field_raw("rows", &format!("[{}]", rows.join(",")));
        w.finish()
    }

    /// Row indices ranked by descending contribution (ties by node id).
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| {
            self.rows[b]
                .contribution
                .partial_cmp(&self.rows[a].contribution)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.rows[a].node.cmp(&self.rows[b].node))
        });
        order
    }

    /// Human-readable ranked table: the `top_k` largest contributors with
    /// per-row and cumulative share, then a one-line summary of the
    /// remainder (count and residual share) so truncation is explicit.
    pub fn to_text(&self, top_k: usize) -> String {
        let mut out = format!(
            "noise budget — {} (npsd={}, bits={})\n\
             power {:.6e} = mean^2 + variance ({:.6e} + {:.6e})\n",
            self.scenario,
            self.npsd,
            self.frac_bits,
            self.power,
            self.mean * self.mean,
            self.variance
        );
        out.push_str("rank  node  block       role   bits  contribution   share    cum\n");
        let ranked = self.ranked();
        let shown = ranked.len().min(top_k.max(1));
        let mut cum = 0.0;
        for (rank, &i) in ranked[..shown].iter().enumerate() {
            let r = &self.rows[i];
            cum += r.share;
            let bits = r.frac_bits.map_or_else(|| "-".to_string(), |b| b.to_string());
            out.push_str(&format!(
                "{:>4}  {:>4}  {:<10}  {:<5}  {:>4}  {:>12.4e}  {:>5.1}%  {:>5.1}%\n",
                rank + 1,
                r.node,
                r.block,
                r.role,
                bits,
                r.contribution,
                r.share * 100.0,
                cum * 100.0
            ));
        }
        if shown < ranked.len() {
            let rest: f64 = ranked[shown..].iter().map(|&i| self.rows[i].share).sum();
            out.push_str(&format!(
                "      ({} more rows, {:.1}% of power)\n",
                ranked.len() - shown,
                rest * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BudgetReport {
        BudgetReport {
            scenario: "fir-bank index=3".to_string(),
            npsd: 128,
            frac_bits: 12,
            power: 1.0e-8,
            mean: -1.0e-5,
            variance: 9.9e-9,
            rows: vec![
                BudgetReportRow {
                    node: 0,
                    block: "input".to_string(),
                    role: "auto".to_string(),
                    frac_bits: Some(12),
                    variance_term: 2.4e-9,
                    mean_term: 1.0e-10,
                    contribution: 2.5e-9,
                    share: 0.25,
                },
                BudgetReportRow {
                    node: 1,
                    block: "fir".to_string(),
                    role: "auto".to_string(),
                    frac_bits: Some(12),
                    variance_term: 7.5e-9,
                    mean_term: 0.0,
                    contribution: 7.5e-9,
                    share: 0.75,
                },
                BudgetReportRow {
                    node: 2,
                    block: "gain".to_string(),
                    role: "exact".to_string(),
                    frac_bits: None,
                    variance_term: 0.0,
                    mean_term: 0.0,
                    contribution: 0.0,
                    share: 0.0,
                },
            ],
        }
    }

    #[test]
    fn result_line_round_trips_into_a_report() {
        let report = sample();
        // Assemble a result line the way the engine does: flat fields
        // plus the rows array under `budget`.
        let mut w = JsonWriter::new();
        w.field_str("kind", "budget");
        w.field_str("scenario", &report.scenario);
        w.field_u64("npsd", report.npsd);
        w.field_i64("frac_bits", report.frac_bits);
        w.field_f64("power", report.power);
        w.field_f64("mean", report.mean);
        w.field_f64("variance", report.variance);
        let rows: Vec<String> = report.rows.iter().map(BudgetReportRow::to_json).collect();
        w.field_raw("budget", &format!("[{}]", rows.join(",")));
        let back = BudgetReport::from_result_line(&w.finish()).unwrap();
        assert_eq!(back, report, "floats survive bit-exactly");
        // The canonical report line is parseable JSON with stable kind.
        let line = report.to_json_line();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("budget_report"));
        assert_eq!(v.get("rows").and_then(Json::as_array).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn malformed_result_lines_are_described() {
        for (line, needle) in [
            ("not json", "bad literal"),
            (r#"{"kind":"psd"}"#, "not a budget result"),
            (r#"{"kind":"budget","scenario":"s"}"#, "npsd"),
            (
                r#"{"kind":"budget","scenario":"s","npsd":64,"frac_bits":8,"power":1.0,"mean":0.0,"variance":1.0}"#,
                "rows array",
            ),
            (
                r#"{"kind":"budget","scenario":"s","npsd":64,"frac_bits":8,"power":1.0,"mean":0.0,"variance":1.0,"budget":[{"node":0}]}"#,
                "block",
            ),
        ] {
            let err = BudgetReport::from_result_line(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` -> `{err}` (wanted `{needle}`)");
        }
    }

    #[test]
    fn text_table_ranks_and_truncates_explicitly() {
        let report = sample();
        let text = report.to_text(1);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("fir-bank index=3"), "{text}");
        // Top-1: the fir row (75%) leads; the remainder is summarized.
        assert!(lines[3].contains("fir") && lines[3].contains("75.0%"), "{text}");
        assert!(text.contains("2 more rows"), "{text}");
        // Full table shows the exact row with a `-` bits column.
        let full = report.to_text(10);
        assert!(full.contains("exact"), "{full}");
        assert!(!full.contains("more rows"), "{full}");
        let ranked = report.ranked();
        assert_eq!(ranked[0], 1, "largest contributor first");
    }
}
