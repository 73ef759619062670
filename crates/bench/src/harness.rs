//! Shared experiment plumbing: CLI parsing, table rendering, CSV output.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Common experiment parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Monte-Carlo input samples for 1-D systems.
    pub samples: usize,
    /// Number of corpus images for the DWT system.
    pub images: usize,
    /// Image side length for the DWT system.
    pub size: usize,
    /// Default PSD grid size.
    pub npsd: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output directory for CSV / PGM artifacts.
    pub out: PathBuf,
    /// Paper-scale workloads (1e6-1e7 samples, 196 images of 512x512).
    pub full: bool,
    /// `psdacc-serve` daemon addresses; when non-empty, engine-batch
    /// experiments dispatch through the `psdacc-sched` coordinator
    /// instead of the local engine.
    pub daemons: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            samples: 200_000,
            images: 4,
            size: 128,
            npsd: 1024,
            seed: 0xBA55,
            out: PathBuf::from("target/experiments"),
            full: false,
            daemons: Vec::new(),
        }
    }
}

/// Whether an experiment binary dispatches engine batches (and so can
/// honour `--daemons`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Runs `fleet::batch_powers` batches, locally or on `--daemons`.
    Batches,
    /// Runs in-process only; `--daemons` is a usage error.
    LocalOnly,
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("usage error: {msg}");
    std::process::exit(2)
}

/// The value following `key`, parsed.
fn value<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>, key: &str) -> T {
    let raw = argv.next().unwrap_or_else(|| usage_error(format!("missing value for {key}")));
    raw.parse().unwrap_or_else(|_| usage_error(format!("{key}: cannot parse {raw:?}")))
}

impl Args {
    /// Parses `--key value` style arguments for a binary that runs as
    /// `dispatch` says.
    ///
    /// A malformed command line — an unknown key, a missing or unparseable
    /// value, a `--daemons` list without an address, or `--daemons` under
    /// [`Dispatch::LocalOnly`] — is a usage error: it is reported on
    /// stderr and the process exits with status 2 before any work starts.
    pub fn parse(dispatch: Dispatch) -> Self {
        let mut args = Args::default();
        let mut argv = std::env::args().skip(1);
        while let Some(key) = argv.next() {
            match key.as_str() {
                "--samples" => args.samples = value(&mut argv, &key),
                "--images" => args.images = value(&mut argv, &key),
                "--size" => args.size = value(&mut argv, &key),
                "--npsd" => args.npsd = value(&mut argv, &key),
                "--seed" => args.seed = value(&mut argv, &key),
                "--out" => args.out = value(&mut argv, &key),
                "--full" => args.full = true,
                "--daemons" if dispatch == Dispatch::LocalOnly => {
                    usage_error("--daemons: this experiment runs locally, with no engine batch")
                }
                "--daemons" => {
                    let list: String = value(&mut argv, &key);
                    args.daemons = list
                        .split(',')
                        .map(str::trim)
                        .filter(|d| !d.is_empty())
                        .map(String::from)
                        .collect();
                    if args.daemons.is_empty() {
                        usage_error(format!("--daemons: no daemon address in {list:?}"));
                    }
                }
                other => usage_error(format!(
                    "unknown argument {other}; known: --samples --images --size --npsd --seed \
                     --out --full --daemons"
                )),
            }
        }
        if args.full {
            args.samples = 10_000_000;
            args.images = 196;
            args.size = 512;
        }
        args
    }

    /// Ensures the output directory exists and returns a path inside it.
    pub fn out_path(&self, name: &str) -> PathBuf {
        let _ = fs::create_dir_all(&self.out);
        self.out.join(name)
    }
}

/// A simple aligned text table with CSV export.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(out, "{cell:>w$}  ", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Writes CSV to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut s = self.headers.join(",");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        fs::write(path, s)
    }
}

/// Formats a fraction as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", 100.0 * x)
}

/// Formats a number in engineering notation.
pub fn eng(x: f64) -> String {
    format!("{x:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        let path = std::env::temp_dir().join("psdacc_table.csv");
        t.write_csv(&path).unwrap();
        let s = fs::read_to_string(&path).unwrap();
        assert_eq!(s, "x,y\n1,2\n");
        let _ = fs::remove_file(path);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.123), "+12.30%");
        assert_eq!(eng(1234.5), "1.234e3");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
