//! Output checks: run-independent result fields, and the `scan` golden
//! powers.

use std::collections::HashMap;

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, Engine, JobResult};

use crate::gen::{self, NPSD};

/// Result fields that legitimately differ between runs; everything else
/// in a result line must be bit-identical wherever the unit runs.
const RUN_FIELDS: [&str; 3] = ["tau_pp_seconds", "tau_eval_seconds", "cache_hit"];

/// The stable fields of one result line, in line order.
pub type Stable = Vec<(String, Json)>;

/// Parses a result line and drops its run-dependent fields.
pub fn stable_fields(line: &str) -> Result<Stable, String> {
    match json::parse(line)? {
        Json::Obj(fields) => {
            Ok(fields.into_iter().filter(|(k, _)| !RUN_FIELDS.contains(&k.as_str())).collect())
        }
        _ => Err(format!("result line is not an object: {line}")),
    }
}

/// Counts result lines that carry an `error` field, fail to parse, or
/// differ from `reference` on a stable field (a missing or extra line
/// counts once per unit).
pub fn count_mismatches<'a>(lines: impl Iterator<Item = &'a str>, reference: &[Stable]) -> usize {
    let mut seen = 0usize;
    let mut bad = 0usize;
    for line in lines {
        let ok = match (stable_fields(line), reference.get(seen)) {
            (Ok(fields), Some(expected)) => {
                fields.iter().all(|(k, _)| k != "error") && &fields == expected
            }
            _ => false,
        };
        bad += usize::from(!ok);
        seen += 1;
    }
    bad + reference.len().abs_diff(seen)
}

/// Relative tolerance of the `scan` golden comparison. Exact agreement is
/// expected at the commit that captured the file; the slack admits a
/// re-associated solve (the oracle target for a structure-following
/// solver is 1e-12) without admitting a wrong one.
pub const GOLDEN_REL_TOL: f64 = 1e-9;

/// The golden `scan` powers: `(scenario key, job kind, bits) -> power`.
pub type Golden = HashMap<(String, String, i32), f64>;

/// The golden file, embedded at build time.
pub const GOLDEN_TEXT: &str = include_str!("../golden/scan_powers.tsv");

/// Parses golden text: one `key<TAB>kind<TAB>bits<TAB>power` row per line.
pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut golden = Golden::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.starts_with('#')) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [key, kind, bits, power] = cols[..] else {
            return Err(format!("golden line {}: expected 4 columns", i + 1));
        };
        let bits = bits.parse().map_err(|e| format!("golden line {}: bits: {e}", i + 1))?;
        let power = power.parse().map_err(|e| format!("golden line {}: power: {e}", i + 1))?;
        golden.insert((key.to_string(), kind.to_string(), bits), power);
    }
    Ok(golden)
}

/// Whether `result` has no error and its power matches the golden row
/// within [`GOLDEN_REL_TOL`].
pub fn matches_golden(result: &JobResult, golden: &Golden) -> bool {
    let (Some(power), Some(bits), None) = (result.power, result.frac_bits, &result.error) else {
        return false;
    };
    let key = (result.scenario.clone(), result.kind.to_string(), bits);
    golden.get(&key).is_some_and(|&g| (power - g).abs() <= GOLDEN_REL_TOL * g.abs())
}

/// Evaluates every `scan` instance the generator can draw, at every
/// word-length it can draw, and renders the golden file.
///
/// # Errors
///
/// The first failed unit: a golden file must not record failures.
pub fn capture_golden() -> Result<String, String> {
    let bits = |b: &[i32]| b.iter().map(i32::to_string).collect::<Vec<_>>().join(",");
    let mut spec = String::new();
    for line in gen::scan_universe() {
        spec.push_str(&format!("scenario {line}\n"));
    }
    spec.push_str(&format!("batch npsd={NPSD} bits={} methods=psd\n", bits(&gen::SCAN_PSD_BITS)));
    spec.push_str(&format!("budget npsd={NPSD} bits={}\n", bits(&gen::SCAN_BUDGET_BITS)));
    let spec = BatchSpec::parse(&spec).map_err(|e| e.to_string())?;
    let report = Engine::new(2).run(spec.jobs());
    let mut out = String::from(
        "# scan golden powers: scenario key, job kind, fractional bits, noise power\n",
    );
    for r in &report.results {
        match (r.power, r.frac_bits, &r.error) {
            (Some(p), Some(b), None) => {
                out.push_str(&format!("{}\t{}\t{b}\t{p:e}\n", r.scenario, r.kind))
            }
            _ => return Err(format!("golden capture: job {} failed: {}", r.job, r.to_json_line())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_fields_are_ignored_and_stable_fields_are_not() {
        let a = r#"{"job":0,"scenario":"s","power":1.5,"tau_eval_seconds":1e-6,"cache_hit":true}"#;
        let b = r#"{"job":0,"scenario":"s","power":1.5,"tau_eval_seconds":9e-6,"cache_hit":false}"#;
        let c = r#"{"job":0,"scenario":"s","power":1.5000000000000002,"tau_eval_seconds":1e-6}"#;
        let reference = vec![stable_fields(a).unwrap()];
        assert_eq!(count_mismatches([b].into_iter(), &reference), 0);
        assert_eq!(count_mismatches([c].into_iter(), &reference), 1);
        assert_eq!(count_mismatches([].into_iter(), &reference), 1, "a missing unit counts");
        let err = r#"{"job":0,"scenario":"s","power":1.5,"error":"boom"}"#;
        let with_err = vec![stable_fields(err).unwrap()];
        assert_eq!(count_mismatches([err].into_iter(), &with_err), 1, "errors never pass");
    }

    #[test]
    fn golden_file_covers_every_drawable_scan_unit() {
        let golden = parse_golden(GOLDEN_TEXT).unwrap();
        let universe = gen::scan_universe().len();
        let per_scenario = gen::SCAN_PSD_BITS.len() + gen::SCAN_BUDGET_BITS.len();
        assert_eq!(golden.len(), universe * per_scenario);
        assert!(golden.values().all(|p| p.is_finite() && *p > 0.0));
    }
}
