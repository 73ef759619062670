//! Harness and shared spec fixtures for the CLI integration tests that
//! drive the workspace binaries.
//!
//! Included with `#[path]` by each package that tests its own binaries
//! (`CARGO_BIN_EXE_*` only names binaries of the package under test).
//! Every child process is owned by a [`Guard`] that kills and reaps it on
//! drop — on panic too — and every file a test or its children write
//! lives in a [`Scratch`] directory removed on drop. Daemons bind port 0.

#![allow(dead_code)]

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use psdacc_engine::{stable_fields, BatchSpec, Engine};

/// Seven scenarios (three of them multirate DWT codecs) x (three word
/// lengths + one min-uniform search): 28 jobs over 7 preprocessing keys,
/// 8 of them `dwt-decimated` rows and 4 `dwt-packet` rows.
pub const SMOKE_SPEC: &str = "scenario freq-filter\n\
                              scenario fir-bank index=0..2\n\
                              scenario dwt-decimated levels=1..2\n\
                              scenario dwt-packet depth=1\n\
                              batch npsd=128 bits=8..10 methods=psd\n\
                              min-uniform npsd=128 budget=1e-6 min=2 max=24\n";

/// A multirate codec graph, defined at runtime as `my-codec` with
/// `--graph my-codec=FILE`.
pub const CODEC_GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},
    {"name":"lp","block":"fir","taps":[0.15,0.35,0.35,0.15],"inputs":["x"]},
    {"name":"d2","block":"downsample","factor":2,"inputs":["lp"]},
    {"name":"u2","block":"upsample","factor":2,"inputs":["d2"]},
    {"name":"interp","block":"fir","taps":[0.5,1.0,0.5],"inputs":["u2"]},
    {"name":"trim","block":"gain","gain":0.5,"inputs":["interp"],"role":"exact"}],
    "outputs":["trim"]}"#;

/// Two scenarios x (three bits x two methods + one simulation): 14 rows,
/// 7 on the defined [`CODEC_GRAPH`].
pub const CODEC_SPEC: &str = "scenario my-codec\n\
                              scenario freq-filter\n\
                              batch npsd=64 bits=8..10 methods=psd,agnostic\n\
                              simulate npsd=64 bits=9 samples=2048 nfft=64 seed=5 trials=1\n";

/// The library engine's result lines for `spec`: the reference every
/// binary's output is compared against.
pub fn engine_lines(spec: &BatchSpec) -> Vec<String> {
    Engine::new(2).run(spec.jobs()).results.iter().map(|r| r.to_json_line()).collect()
}

/// Asserts `got` are the `want` result lines, in order, on every stable
/// field.
pub fn assert_stable_eq(got: &[&str], want: &[String]) {
    assert_eq!(got.len(), want.len(), "{got:#?}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(stable_fields(g).unwrap(), stable_fields(w).unwrap(), "\n got: {g}\nwant: {w}");
    }
}

/// Upper bound on one command: a hung binary fails its test instead of
/// hanging the suite.
const DEADLINE: Duration = Duration::from_secs(120);

/// A per-test temporary directory, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// A fresh, empty directory named after the test process and `tag`.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("psdacc-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    /// The directory itself.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `name` inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Writes `contents` to `name` and returns the path as a CLI argument.
    pub fn write(&self, name: &str, contents: &str) -> String {
        let path = self.path(name);
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// Reads `name` back.
    pub fn read(&self, name: &str) -> String {
        std::fs::read_to_string(self.path(name))
            .unwrap_or_else(|e| panic!("{}: {e}", self.path(name).display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A child process killed and reaped when dropped.
pub struct Guard(pub Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// What a finished command left behind.
pub struct Output {
    pub status: ExitStatus,
    pub stdout: String,
    pub stderr: String,
}

impl Output {
    /// Stdout, after checking the command succeeded.
    pub fn ok(&self) -> &str {
        assert!(self.status.success(), "{}\nstderr:\n{}", self.status, self.stderr);
        &self.stdout
    }

    /// The non-empty stdout lines.
    pub fn lines(&self) -> Vec<&str> {
        self.stdout.lines().filter(|l| !l.trim().is_empty()).collect()
    }
}

/// `bin args...` with its working directory in `scratch`, so relative
/// output paths land there.
pub fn command(bin: &str, scratch: &Scratch, args: &[&str]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args).current_dir(scratch.dir());
    cmd
}

/// Runs `cmd` to completion under [`DEADLINE`], capturing both streams.
pub fn run(cmd: &mut Command) -> Output {
    let mut guard = Guard(
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap(),
    );
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        })
    };
    let stdout = drain(Box::new(guard.0.stdout.take().unwrap()));
    let stderr = drain(Box::new(guard.0.stderr.take().unwrap()));
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = guard.0.try_wait().unwrap() {
            break status;
        }
        assert!(t0.elapsed() < DEADLINE, "{cmd:?} still running after {DEADLINE:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    Output { status, stdout: stdout.join().unwrap(), stderr: stderr.join().unwrap() }
}
