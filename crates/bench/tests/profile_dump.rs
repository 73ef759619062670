//! `exp_bench --profile DIR` output: every probe that exercises
//! instrumented code writes a hotspot table (`<probe>.profile.txt`), a
//! `"kind":"profile"` JSON line (`<probe>.profile.json`), and folded
//! stacks (`<probe>.folded`) that obey the flamegraph input grammar
//! (`path sample_count`, one per line).
//!
//! The profiler global is process-wide and first-install-wins, so the
//! suite runs once, in this test's own integration binary.

use std::path::Path;

use psdacc_obs::json;

fn read(dir: &Path, file: &str) -> String {
    let path = dir.join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// `\S+ \d+`: one non-empty whitespace-free path, one space, a count.
fn is_folded_line(line: &str) -> bool {
    line.split_once(' ').is_some_and(|(path, count)| {
        !path.is_empty()
            && !path.chars().any(char::is_whitespace)
            && !count.is_empty()
            && count.bytes().all(|b| b.is_ascii_digit())
    })
}

#[test]
fn profiled_suite_dumps_well_formed_tables_json_and_folded_stacks() {
    let dir = std::env::temp_dir().join(format!("psdacc-profile-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    psdacc_bench::run_baseline_profiled(64, 1, Some(&dir));

    let mut probes: Vec<String> = std::fs::read_dir(&dir)
        .expect("profile dir exists")
        .filter_map(|e| {
            e.ok()?.file_name().to_str()?.strip_suffix(".profile.txt").map(String::from)
        })
        .collect();
    probes.sort();
    for probe in ["preprocess", "preprocess_multirate"] {
        assert!(probes.iter().any(|p| p == probe), "{probe} not dumped: {probes:?}");
    }

    for probe in &probes {
        let text = read(&dir, &format!("{probe}.profile.txt"));
        let first = text.lines().next().unwrap_or("");
        assert!(
            text.starts_with("profile: ") && first.contains(" frame paths"),
            "{probe}: bad table header {first:?}"
        );
        assert!(text.lines().count() > 2, "{probe}: hotspot table is empty");

        let line = read(&dir, &format!("{probe}.profile.json"));
        let j = json::parse(line.trim()).unwrap_or_else(|e| panic!("{probe}: {e}"));
        assert_eq!(j.get("kind").and_then(|k| k.as_str()), Some("profile"), "{probe}");
        assert!(j.get("frames").and_then(|f| f.as_u64()).is_some_and(|f| f > 0), "{probe}");
        assert!(
            j.get("hotspots").and_then(|h| h.as_array()).is_some_and(|h| !h.is_empty()),
            "{probe}: no hotspots"
        );

        let folded = read(&dir, &format!("{probe}.folded"));
        assert!(!folded.is_empty(), "{probe}: no folded stacks");
        for line in folded.lines() {
            assert!(is_folded_line(line), "{probe}: bad folded line {line:?}");
        }
    }

    // The multirate probe attributes time to named rate regions.
    let mr = read(&dir, "preprocess_multirate.folded");
    assert!(mr.contains("region[") && mr.contains("multirate"), "{mr}");
    let _ = std::fs::remove_dir_all(&dir);
}
