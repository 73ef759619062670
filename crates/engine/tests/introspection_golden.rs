//! Byte-for-byte goldens of the introspection wire lines.
//!
//! `golden/describe.json` and `golden/scenarios.json` hold the `describe`
//! (all families) and `scenarios` lines of the default registry: every
//! family's name, provider, description, parameter order, kinds, defaults
//! and constraint text, in serving order. Clients read these lines to
//! build spec files, so any change to the family table shows up here.

use psdacc_engine::ScenarioRegistry;

const DESCRIBE: &str = include_str!("golden/describe.json");
const SCENARIOS: &str = include_str!("golden/scenarios.json");

#[test]
fn describe_line_matches_golden() {
    let line = ScenarioRegistry::new().describe_json_line(None).unwrap();
    assert_eq!(line, DESCRIBE.trim_end());
}

#[test]
fn scenarios_line_matches_golden() {
    assert_eq!(ScenarioRegistry::new().scenarios_json_line(), SCENARIOS.trim_end());
}
