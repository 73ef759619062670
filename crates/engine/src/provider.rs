//! The scenario registry: the static family table, family introspection,
//! and runtime graph definition.
//!
//! * The family table is the one place each static family is written:
//!   name, provider tag (`builtin` for the 9 paper-derived families,
//!   `estim` for the 3 measured-signal families), description, and the
//!   parameter schema — order, kinds, defaults, constraint text. Spec-line
//!   parsing and its defaults, `describe`/`scenarios` introspection, and
//!   the parameter order of [`Scenario::key`] / [`Scenario::to_spec_line`]
//!   all derive from it.
//! * Runtime-defined [`GraphSpec`] scenarios are registered by name (the
//!   `define_scenario` wire verb lands here), tagged `dynamic`, and
//!   identified by content hash.
//! * [`ScenarioRegistry`] parses against both. Cloning shares the named
//!   graphs, so every connection thread of a daemon sees definitions the
//!   moment they are registered.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, RwLock};

use psdacc_sfg::{spec, GraphSpec};

use crate::error::EngineError;
use crate::graphspec::GraphScenario;
use crate::json::{escape_str, JsonWriter};
use crate::scenario::Scenario;

/// Schema of one scenario parameter (for `describe` introspection and CLI
/// tables).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name as written in spec lines.
    pub name: &'static str,
    /// Value kind: `"int"`, `"float"`, or `"str"`.
    pub kind: &'static str,
    /// Whether the parameter must be given.
    pub required: bool,
    /// Default value rendered as spec text (absent for required params).
    pub default: Option<&'static str>,
    /// Human-readable constraint (e.g. `0..147`).
    pub constraint: &'static str,
}

/// One scenario family: name, provenance, and parameter schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyInfo {
    /// Family name as written in batch specs.
    pub name: String,
    /// Which table serves it (`"builtin"`, `"estim"`, or `"dynamic"`).
    pub provider: &'static str,
    /// One-line description.
    pub description: String,
    /// Parameter schema (empty for parameterless families).
    pub params: Vec<ParamSpec>,
}

impl FamilyInfo {
    /// Compact `key=default ...` summary for CLI tables.
    pub fn params_summary(&self) -> String {
        if self.params.is_empty() {
            return "(none)".to_string();
        }
        self.params
            .iter()
            .map(|p| match (p.required, p.default) {
                (true, _) => format!("{} (required, {})", p.name, p.constraint),
                (false, Some(d)) => format!("{}={d}", p.name),
                (false, None) => p.name.to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// One-line JSON rendering (the `describe` wire shape): name,
    /// provider, description, and the full parameter schema.
    pub fn to_json_line(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| {
                let mut w = JsonWriter::new();
                w.field_str("name", p.name);
                w.field_str("kind", p.kind);
                w.field_bool("required", p.required);
                if let Some(d) = p.default {
                    w.field_str("default", d);
                }
                w.field_str("constraint", p.constraint);
                w.finish()
            })
            .collect();
        let mut w = JsonWriter::new();
        w.field_str("name", &self.name);
        w.field_str("provider", self.provider);
        w.field_str("description", &self.description);
        w.field_raw("params", &format!("[{}]", params.join(",")));
        w.finish()
    }
}

const INT: &str = "int";
const FLOAT: &str = "float";
const STR: &str = "str";

/// A parameter that takes its schema default when a spec line omits it.
const fn param(
    name: &'static str,
    kind: &'static str,
    default: &'static str,
    constraint: &'static str,
) -> ParamSpec {
    ParamSpec { name, kind, required: false, default: Some(default), constraint }
}

/// A parameter every spec line must give.
const fn required(name: &'static str, kind: &'static str, constraint: &'static str) -> ParamSpec {
    ParamSpec { name, kind, required: true, default: None, constraint }
}

/// One row of the static family table.
pub(crate) struct Family {
    name: &'static str,
    provider: &'static str,
    description: &'static str,
    params: &'static [ParamSpec],
    /// Builds the variant, reading its parameters in schema order.
    make: fn(&mut Args<'_>) -> Result<Scenario, EngineError>,
}

pub(crate) static FIR_BANK: Family = Family {
    name: "fir-bank",
    provider: "builtin",
    description: "one FIR of the paper's Table I population",
    params: &[required("index", INT, "0..147")],
    make: |a| Ok(Scenario::FirBank { index: a.int()? }),
};

pub(crate) static IIR_BANK: Family = Family {
    name: "iir-bank",
    provider: "builtin",
    description: "one IIR of the paper's Table I population",
    params: &[required("index", INT, "0..147")],
    make: |a| Ok(Scenario::IirBank { index: a.int()? }),
};

pub(crate) static FIR_CASCADE: Family = Family {
    name: "fir-cascade",
    provider: "builtin",
    description: "chain of identical lowpass FIR stages",
    params: &[
        param("stages", INT, "2", "1..=16"),
        param("taps", INT, "31", "3..=255"),
        param("cutoff", FLOAT, "0.2", "(0, 0.5)"),
    ],
    make: |a| Ok(Scenario::FirCascade { stages: a.int()?, taps: a.int()?, cutoff: a.float()? }),
};

pub(crate) static IIR_CASCADE: Family = Family {
    name: "iir-cascade",
    provider: "builtin",
    description: "chain of identical Butterworth IIR stages",
    params: &[
        param("stages", INT, "2", "1..=16"),
        param("order", INT, "4", "1..=10"),
        param("cutoff", FLOAT, "0.2", "(0, 0.5)"),
    ],
    make: |a| Ok(Scenario::IirCascade { stages: a.int()?, order: a.int()?, cutoff: a.float()? }),
};

pub(crate) static FREQ_FILTER: Family = Family {
    name: "freq-filter",
    provider: "builtin",
    description: "Fig. 2 band-pass chain (prefilter + highpass)",
    params: &[],
    make: |_| Ok(Scenario::FreqFilter),
};

pub(crate) static DWT_PIPELINE: Family = Family {
    name: "dwt-pipeline",
    provider: "builtin",
    description: "undecimated CDF 9/7 analysis/synthesis pipeline",
    params: &[param("levels", INT, "2", "1..=4")],
    make: |a| Ok(Scenario::DwtPipeline { levels: a.int()? }),
};

pub(crate) static DWT_DECIMATED: Family = Family {
    name: "dwt-decimated",
    provider: "builtin",
    description: "decimated CDF 9/7 octave codec (true multirate; npsd divisible by 2^levels)",
    params: &[param("levels", INT, "2", "1..=4")],
    make: |a| Ok(Scenario::DwtDecimated { levels: a.int()? }),
};

pub(crate) static DWT_PACKET: Family = Family {
    name: "dwt-packet",
    provider: "builtin",
    description: "decimated CDF 9/7 wavelet-packet bank (2^depth uniform subbands)",
    params: &[param("depth", INT, "2", "1..=3")],
    make: |a| Ok(Scenario::DwtPacket { depth: a.int()? }),
};

pub(crate) static RANDOM_SFG: Family = Family {
    name: "random-sfg",
    provider: "builtin",
    description: "seeded random chain-with-forks DAG",
    params: &[param("nodes", INT, "12", "1..=256"), param("seed", INT, "1", "u64")],
    make: |a| Ok(Scenario::RandomSfg { nodes: a.int()?, seed: a.int()? }),
};

// The measured-signal families: the noise model is *estimated from a
// seeded trace* by `psdacc-estim` rather than derived from quantization
// formulas. Determinism per seed is what makes them fleet-safe: every
// daemon rebuilding the scenario from its spec line reproduces the trace,
// hence the spectrum, bit-identically.

pub(crate) static MEASURED_WELCH: Family = Family {
    name: "measured-welch",
    provider: "estim",
    description: "Welch-estimated PSD of a seeded AR(1)+DC trace as a measured source",
    params: &[
        param("samples", INT, "4096", "256..=65536"),
        param("seed", INT, "1", "u64"),
        param("nfft", INT, "256", "power of two, 8..=16384, <= samples"),
        param("overlap", FLOAT, "0.5", "[0, 0.95]"),
        param("window", STR, "hann", "rect | hann | hamming | blackman | kaiser"),
        ParamSpec {
            name: "beta",
            kind: FLOAT,
            required: false,
            default: None,
            constraint: "kaiser shape, required iff window=kaiser",
        },
        param("taps", INT, "31", "3..=255"),
    ],
    make: |a| {
        let (samples, seed, nfft, overlap) = (a.int()?, a.int()?, a.int()?, a.float()?);
        let (window, beta) = (a.text()?, a.opt_float()?);
        // One spelling per window (`rectangular` is stored as `rect`), so
        // equal windows share one key; a bad name fails in `validate`.
        let window =
            psdacc_estim::WelchWindow::parse(window, beta).map_or(window, |w| w.name()).to_string();
        Ok(Scenario::MeasuredWelch { samples, seed, nfft, overlap, window, beta, taps: a.int()? })
    },
};

pub(crate) static CROSS_SPECTRUM: Family = Family {
    name: "cross-spectrum",
    provider: "estim",
    description: "two-channel cross-spectrum estimate rejecting uncorrelated sensor noise",
    params: &[
        param("samples", INT, "8192", "256..=65536"),
        param("seed", INT, "1", "u64"),
        param("nfft", INT, "128", "power of two, 8..=16384, <= samples"),
        param("overlap", FLOAT, "0.5", "[0, 0.95]"),
        param("snr", FLOAT, "0", "-40..=80 dB common-to-independent ratio"),
        param("taps", INT, "31", "3..=255"),
    ],
    make: |a| {
        Ok(Scenario::CrossSpectrum {
            samples: a.int()?,
            seed: a.int()?,
            nfft: a.int()?,
            overlap: a.float()?,
            snr: a.float()?,
            taps: a.int()?,
        })
    },
};

pub(crate) static SIGMA_DELTA: Family = Family {
    name: "sigma-delta",
    provider: "estim",
    description: "bit-true sigma-delta modulator error spectrum feeding the decimation filter",
    params: &[
        param("order", INT, "2", "1..=2"),
        param("osr", INT, "16", "power of two, 4..=128"),
        param("amp", FLOAT, "0.5", "(0, 1]"),
        param("samples", INT, "16384", "256..=65536"),
        param("seed", INT, "1", "u64"),
        param("nfft", INT, "1024", "power of two, >= 8*osr, <= samples"),
        param("taps", INT, "63", "3..=255"),
    ],
    make: |a| {
        Ok(Scenario::SigmaDelta {
            order: a.int()?,
            osr: a.int()?,
            amp: a.float()?,
            samples: a.int()?,
            seed: a.int()?,
            nfft: a.int()?,
            taps: a.int()?,
        })
    },
};

/// Every static family in serving order: builtin, then estim.
static FAMILIES: [&Family; 12] = [
    &FIR_BANK,
    &IIR_BANK,
    &FIR_CASCADE,
    &IIR_CASCADE,
    &FREQ_FILTER,
    &DWT_PIPELINE,
    &DWT_DECIMATED,
    &DWT_PACKET,
    &RANDOM_SFG,
    &MEASURED_WELCH,
    &CROSS_SPECTRUM,
    &SIGMA_DELTA,
];

/// Most parameters any family has (`measured-welch`, `sigma-delta`).
const MAX_PARAMS: usize = 7;

/// One parameter value as rendered in keys and spec lines.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Param<'a> {
    Int(u64),
    Float(f64),
    Str(&'a str),
    /// An optional parameter left out (`beta` off the kaiser window).
    Omitted,
}

impl From<usize> for Param<'_> {
    fn from(v: usize) -> Self {
        Param::Int(v as u64)
    }
}

impl From<u64> for Param<'_> {
    fn from(v: u64) -> Self {
        Param::Int(v)
    }
}

impl From<f64> for Param<'_> {
    fn from(v: f64) -> Self {
        Param::Float(v)
    }
}

impl fmt::Display for Param<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Param::Int(v) => write!(f, "{v}"),
            Param::Float(v) => write!(f, "{v}"),
            Param::Str(v) => f.write_str(v),
            Param::Omitted => Ok(()),
        }
    }
}

/// A family row with one scenario's parameter values in schema order.
pub(crate) struct Row<'a> {
    family: &'static Family,
    values: [Param<'a>; MAX_PARAMS],
}

impl Family {
    /// Parses one spec line's parameters: unknown keys are rejected,
    /// omitted ones take the schema default, and ranges are validated.
    fn parse(&self, given: &BTreeMap<String, String>) -> Result<Scenario, EngineError> {
        if let Some(key) = given.keys().find(|k| !self.params.iter().any(|p| p.name == *k)) {
            let allowed: Vec<&str> = self.params.iter().map(|p| p.name).collect();
            return Err(EngineError::Scenario(format!(
                "{}: unknown parameter `{key}` (allowed: {})",
                self.name,
                if allowed.is_empty() { "none".to_string() } else { allowed.join(", ") }
            )));
        }
        let mut args = Args { family: self, given, next: 0 };
        let scenario = (self.make)(&mut args)?;
        debug_assert_eq!(args.next, self.params.len(), "{}: every parameter is read", self.name);
        // Range errors surface at parse time (with the spec's line number);
        // the full graph build is deferred to the evaluator cache so design
        // work is not paid twice per scenario.
        scenario.validate()?;
        Ok(scenario)
    }

    fn info(&self) -> FamilyInfo {
        FamilyInfo {
            name: self.name.to_string(),
            provider: self.provider,
            description: self.description.to_string(),
            params: self.params.to_vec(),
        }
    }

    /// Pairs the row with `given`, one value per parameter in schema order.
    pub(crate) fn row<'a>(&'static self, given: &[Param<'a>]) -> Row<'a> {
        debug_assert_eq!(given.len(), self.params.len(), "{}: one value per parameter", self.name);
        let mut values = [Param::Omitted; MAX_PARAMS];
        values[..given.len()].copy_from_slice(given);
        Row { family: self, values }
    }
}

impl Row<'_> {
    /// Renders the family name and each present `param=value`: `open`
    /// before the first, `sep` between, `close` after the last (neither
    /// when no parameter is present). One `String`, no per-field
    /// allocation — keys are rendered per job.
    pub(crate) fn render(&self, open: char, sep: char, close: &str) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(self.family.name);
        let mut first = true;
        for (p, value) in self.family.params.iter().zip(&self.values) {
            if let Param::Omitted = value {
                continue;
            }
            out.push(if first { open } else { sep });
            first = false;
            write!(out, "{}={value}", p.name).expect("writing to a String cannot fail");
        }
        if !first {
            out.push_str(close);
        }
        out
    }
}

/// One spec line's parameters as a family's `make` reads them: in schema
/// order, each read taking the given text or else the schema default.
struct Args<'a> {
    family: &'a Family,
    given: &'a BTreeMap<String, String>,
    next: usize,
}

impl<'a> Args<'a> {
    /// The next parameter's name and text; `None` text for an omitted
    /// optional parameter without a default.
    fn next(&mut self, kind: &str) -> Result<(&'static str, Option<&'a str>), EngineError> {
        let p = &self.family.params[self.next];
        debug_assert_eq!(p.kind, kind, "{}: `{}` read out of order", self.family.name, p.name);
        self.next += 1;
        let text = self.given.get(p.name).map(String::as_str).or(p.default);
        if text.is_none() && p.required {
            return Err(EngineError::Scenario(format!(
                "{}: missing required parameter `{}`",
                self.family.name, p.name
            )));
        }
        Ok((p.name, text))
    }

    fn int<T: TryFrom<u64>>(&mut self) -> Result<T, EngineError> {
        let (key, text) = self.next(INT)?;
        let text = text.expect("int parameters are required or defaulted");
        text.parse::<u64>()
            .ok()
            .and_then(|v| T::try_from(v).ok())
            .ok_or_else(|| self.malformed(key, "an integer", text))
    }

    fn opt_float(&mut self) -> Result<Option<f64>, EngineError> {
        let (key, text) = self.next(FLOAT)?;
        text.map(|t| t.parse().map_err(|_| self.malformed(key, "a number", t))).transpose()
    }

    fn float(&mut self) -> Result<f64, EngineError> {
        Ok(self.opt_float()?.expect("float parameters other than `beta` are defaulted"))
    }

    fn text(&mut self) -> Result<&'a str, EngineError> {
        Ok(self.next(STR)?.1.expect("str parameters are defaulted"))
    }

    fn malformed(&self, key: &str, what: &str, text: &str) -> EngineError {
        EngineError::Scenario(format!("{}: `{key}` must be {what}, got `{text}`", self.family.name))
    }
}

/// The static families plus the runtime-defined named graphs, and the
/// handle for graph definition. Inline `graph={...}` scenario text needs
/// no registration — the JSON *is* the definition.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRegistry {
    /// Named graphs, shared by every clone. Redefinition under a name
    /// replaces the entry — content-hash identity keeps caches and stores
    /// correct either way.
    graphs: Arc<RwLock<BTreeMap<String, GraphScenario>>>,
}

impl ScenarioRegistry {
    /// The builtin and measured-signal families, no named graphs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates and registers a named graph scenario. Rejects names that
    /// shadow a static family (a registered graph must never change what
    /// `fir-bank` means). Idempotent for identical content.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] for a reserved or ill-formed name,
    /// [`EngineError::GraphSpec`] for a defective spec.
    pub fn define_graph(&self, name: &str, graph: GraphSpec) -> Result<GraphScenario, EngineError> {
        if name == "graph" || FAMILIES.iter().any(|f| f.name == name) {
            return Err(EngineError::Scenario(format!(
                "scenario name `{name}` is reserved (builtin family)"
            )));
        }
        if !spec::is_valid_name(name) {
            return Err(EngineError::Scenario(format!(
                "bad scenario name `{name}` (1..={} characters of [A-Za-z0-9_.-])",
                spec::MAX_NAME_LEN
            )));
        }
        let scenario = GraphScenario::new(graph, Some(name.to_string()))?;
        self.graphs
            .write()
            .expect("graph registry lock poisoned")
            .insert(name.to_string(), scenario.clone());
        Ok(scenario)
    }

    /// [`ScenarioRegistry::define_graph`] over raw JSON text.
    ///
    /// # Errors
    ///
    /// See [`ScenarioRegistry::define_graph`].
    pub fn define_graph_json(&self, name: &str, json: &str) -> Result<GraphScenario, EngineError> {
        self.define_graph(name, crate::graphspec::graph_spec_from_str(json)?)
    }

    /// Loads `NAME=FILE` graph definitions — the repeatable `--graph` flag
    /// of the `psdacc-engine` and `psdacc-sched` CLIs. Each file's JSON is
    /// registered under its name, and the wire-ready `(name, canonical
    /// JSON)` pairs are returned for forwarding to daemons via
    /// `define_scenario`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] naming the offending entry for malformed
    /// `NAME=FILE` syntax, unreadable files, and rejected definitions.
    pub fn define_graph_files(
        &self,
        entries: &[String],
    ) -> Result<Vec<(String, String)>, EngineError> {
        self.define_graph_files_resolved(entries, None)
    }

    /// [`ScenarioRegistry::define_graph_files`] with client-side trace
    /// resolution: when `traces` is given (the `--trace-dir` flag), every
    /// measured node's `"trace": "<hash>"` reference is rewritten to
    /// checksum-verified inline samples *before* registration, so the
    /// canonical wire form shipped to daemons never mentions the store.
    ///
    /// # Errors
    ///
    /// See [`ScenarioRegistry::define_graph_files`]; additionally
    /// [`EngineError::Scenario`] naming the entry when a referenced trace
    /// blob is missing or corrupt.
    pub fn define_graph_files_resolved(
        &self,
        entries: &[String],
        traces: Option<&psdacc_estim::TraceStore>,
    ) -> Result<Vec<(String, String)>, EngineError> {
        let mut definitions = Vec::with_capacity(entries.len());
        for entry in entries {
            let (name, path) = entry.split_once('=').ok_or_else(|| {
                EngineError::Scenario(format!("--graph needs NAME=FILE, got `{entry}`"))
            })?;
            let json = std::fs::read_to_string(path).map_err(|e| {
                EngineError::Scenario(format!("--graph {name}: cannot read {path}: {e}"))
            })?;
            let json = match traces {
                None => json,
                Some(store) => {
                    let value = crate::json::parse(&json).map_err(|e| {
                        EngineError::Scenario(format!("--graph {name}: bad JSON in {path}: {e}"))
                    })?;
                    let resolved = crate::graphspec::resolve_trace_refs(&value, store)
                        .map_err(|e| EngineError::Scenario(format!("--graph {name}: {e}")))?;
                    resolved.to_json_line()
                }
            };
            let defined = self
                .define_graph_json(name, &json)
                .map_err(|e| EngineError::Scenario(format!("--graph {name}: {e}")))?;
            definitions.push((name.to_string(), defined.canonical_json().to_string()));
        }
        Ok(definitions)
    }

    /// Number of dynamically registered scenarios.
    pub fn dynamic_count(&self) -> usize {
        self.graphs.read().expect("graph registry lock poisoned").len()
    }

    /// Every family currently served: the static table (builtin, then
    /// estim), then the named graphs in name order.
    pub fn families(&self) -> Vec<FamilyInfo> {
        let graphs = self.graphs.read().expect("graph registry lock poisoned");
        let dynamic = graphs.iter().map(|(name, g)| FamilyInfo {
            name: name.clone(),
            provider: "dynamic",
            description: format!(
                "runtime-defined graph ({} nodes, {})",
                g.spec().nodes.len(),
                g.key()
            ),
            params: Vec::new(),
        });
        FAMILIES.iter().map(|f| f.info()).chain(dynamic).collect()
    }

    /// Parses `name` + params against the family table, then the named
    /// graphs.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] when nothing serves `name` (listing
    /// everything that is served) or when the parameters are invalid.
    pub fn parse(
        &self,
        name: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Scenario, EngineError> {
        if name == "graph" {
            return Err(EngineError::Scenario(
                "inline graph scenarios use `graph={...}` with the JSON on the same line"
                    .to_string(),
            ));
        }
        if let Some(family) = FAMILIES.iter().find(|f| f.name == name) {
            return family.parse(params);
        }
        let graph = self.graphs.read().expect("graph registry lock poisoned").get(name).cloned();
        if let Some(graph) = graph {
            if let Some(key) = params.keys().next() {
                return Err(EngineError::Scenario(format!(
                    "{name}: registered graph scenarios take no parameters (got `{key}`)"
                )));
            }
            return Ok(Scenario::Graph(graph));
        }
        let known: Vec<String> = self.families().iter().map(|f| f.name.clone()).collect();
        Err(EngineError::Scenario(format!(
            "unknown scenario `{name}`; known: {}, or inline `graph={{...}}`",
            known.join(", ")
        )))
    }

    /// Parses one scenario spec line: `name key=value ...` for registered
    /// families, or `graph={...}` / `graph {...}` with inline JSON (the
    /// remainder of the line, so the JSON may contain spaces).
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] / [`EngineError::GraphSpec`], naming the
    /// offending text.
    pub fn parse_spec_line(&self, text: &str) -> Result<Scenario, EngineError> {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Err(EngineError::Scenario("empty scenario spec".to_string()));
        }
        if let Some(json) = inline_graph_json(trimmed) {
            let scenario = GraphScenario::from_json(json, None)?;
            return Ok(Scenario::Graph(scenario));
        }
        let mut tokens = trimmed.split_whitespace();
        let name = tokens.next().expect("non-empty trimmed text");
        let mut params = BTreeMap::new();
        for token in tokens {
            let (k, v) = token.split_once('=').ok_or_else(|| {
                EngineError::Scenario(format!(
                    "expected key=value, got `{token}` in scenario spec `{trimmed}`"
                ))
            })?;
            if params.insert(k.to_string(), v.to_string()).is_some() {
                return Err(EngineError::Scenario(format!(
                    "duplicate key `{k}` in scenario spec `{trimmed}`"
                )));
            }
        }
        self.parse(name, &params)
    }

    /// Renders the `scenarios` wire line (every family, with provenance).
    pub fn scenarios_json_line(&self) -> String {
        let families = self.families();
        let entries: Vec<String> = families
            .iter()
            .map(|f| {
                let mut w = JsonWriter::new();
                w.field_str("name", &f.name);
                w.field_str("provider", f.provider);
                w.field_str("params", &f.params_summary());
                w.field_str("description", &f.description);
                w.finish()
            })
            .collect();
        let mut w = JsonWriter::new();
        w.field_str("kind", "scenarios");
        w.field_usize("count", families.len());
        w.field_usize("dynamic", self.dynamic_count());
        w.field_raw("entries", &format!("[{}]", entries.join(",")));
        w.finish()
    }

    /// Renders the `describe` wire line: full per-family parameter
    /// schemas, optionally narrowed to one family.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] when `family` names nothing served.
    pub fn describe_json_line(&self, family: Option<&str>) -> Result<String, EngineError> {
        let mut families = self.families();
        if let Some(name) = family {
            families.retain(|f| f.name == name);
            if families.is_empty() {
                return Err(EngineError::Scenario(format!(
                    "unknown scenario family `{name}` (try `scenarios` for the list)"
                )));
            }
        }
        let entries: Vec<String> = families.iter().map(FamilyInfo::to_json_line).collect();
        let mut w = JsonWriter::new();
        w.field_str("kind", "describe");
        w.field_usize("count", families.len());
        if let Some(name) = family {
            w.field_raw("family", &escape_str(name));
        }
        w.field_raw("families", &format!("[{}]", entries.join(",")));
        Ok(w.finish())
    }
}

/// Recognizes the inline-graph scenario syntax: `graph={...}` or
/// `graph {...}` (returns the JSON remainder).
pub(crate) fn inline_graph_json(trimmed: &str) -> Option<&str> {
    let rest = trimmed.strip_prefix("graph")?;
    let rest = rest.strip_prefix('=').unwrap_or(rest).trim_start();
    rest.starts_with('{').then_some(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO_GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},{"name":"g","block":"gain","gain":0.3,"inputs":["x"]}],"outputs":["g"]}"#;

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn default_chain_serves_all_twelve_families() {
        let registry = ScenarioRegistry::new();
        let families = registry.families();
        assert_eq!(families.len(), 12);
        assert_eq!(families.iter().filter(|f| f.provider == "builtin").count(), 9);
        assert_eq!(families.iter().filter(|f| f.provider == "estim").count(), 3);
        for family in &families {
            let p = if family.name.ends_with("-bank") {
                params(&[("index", "3")])
            } else {
                params(&[])
            };
            let s =
                registry.parse(&family.name, &p).unwrap_or_else(|e| panic!("{}: {e}", family.name));
            let g = s.build().expect("default scenario builds");
            assert!(!g.outputs().is_empty(), "{}: output marked", family.name);
        }
    }

    #[test]
    fn estim_families_parse_validate_and_introspect() {
        let registry = ScenarioRegistry::new();
        // Kaiser needs beta; hann must reject it.
        assert!(registry
            .parse_spec_line("measured-welch window=kaiser beta=8.6 samples=1024")
            .is_ok());
        assert!(registry.parse_spec_line("measured-welch window=kaiser").is_err());
        assert!(registry.parse_spec_line("measured-welch beta=2.0").is_err());
        // Range checks surface at parse time with the family name.
        let err = registry.parse_spec_line("sigma-delta osr=13").unwrap_err().to_string();
        assert!(err.contains("sigma-delta"), "{err}");
        assert!(registry.parse_spec_line("cross-spectrum snr=999").is_err());
        assert!(registry.parse_spec_line("measured-welch bogus=1").is_err());
        // The describe schema carries the str-typed window parameter.
        let line = registry.describe_json_line(Some("measured-welch")).unwrap();
        let v = crate::json::parse(&line).unwrap();
        let fam = &v.get("families").unwrap().as_array().unwrap()[0];
        assert_eq!(fam.get("provider").and_then(crate::json::Json::as_str), Some("estim"));
        let schema = fam.get("params").unwrap().as_array().unwrap();
        let window = schema
            .iter()
            .find(|p| p.get("name").and_then(crate::json::Json::as_str) == Some("window"))
            .expect("window param in schema");
        assert_eq!(window.get("kind").and_then(crate::json::Json::as_str), Some("str"));
        // Estim family names are reserved against dynamic shadowing.
        let err = registry.define_graph_json("sigma-delta", DEMO_GRAPH).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn param_schemas_describe_requirements() {
        let registry = ScenarioRegistry::new();
        let families = registry.families();
        let bank = families.iter().find(|f| f.name == "fir-bank").unwrap();
        assert!(bank.params[0].required);
        assert_eq!(bank.params_summary(), "index (required, 0..147)");
        let cascade = families.iter().find(|f| f.name == "fir-cascade").unwrap();
        assert_eq!(cascade.params_summary(), "stages=2 taps=31 cutoff=0.2");
        let line = registry.describe_json_line(Some("fir-cascade")).unwrap();
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(1));
        let fam = &v.get("families").unwrap().as_array().unwrap()[0];
        let schema = fam.get("params").unwrap().as_array().unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema[0].get("name").and_then(crate::json::Json::as_str), Some("stages"));
        assert!(registry.describe_json_line(Some("nope")).is_err());
    }

    #[test]
    fn dynamic_definition_round_trips_through_parse() {
        let registry = ScenarioRegistry::new();
        assert_eq!(registry.dynamic_count(), 0);
        let defined = registry.define_graph_json("my-codec", DEMO_GRAPH).unwrap();
        assert_eq!(registry.dynamic_count(), 1);
        let parsed = registry.parse_spec_line("my-codec").unwrap();
        assert_eq!(parsed, Scenario::Graph(defined.clone()));
        assert_eq!(parsed.key(), defined.key());
        assert_eq!(parsed.to_spec_line(), "my-codec", "named graphs ship by name");
        // Families list now includes it, tagged dynamic.
        let families = registry.families();
        assert_eq!(families.len(), 13);
        assert!(families.iter().any(|f| f.name == "my-codec" && f.provider == "dynamic"));
        // Clones share the registration (daemon connection threads).
        assert_eq!(registry.clone().dynamic_count(), 1);
        // Parameters on a registered graph are rejected.
        assert!(registry.parse("my-codec", &params(&[("bits", "3")])).is_err());
    }

    #[test]
    fn inline_graph_lines_parse_without_registration() {
        let registry = ScenarioRegistry::new();
        for line in [
            format!("graph={DEMO_GRAPH}"),
            format!("graph {DEMO_GRAPH}"),
            format!("graph= {DEMO_GRAPH}"),
        ] {
            let s = registry.parse_spec_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let Scenario::Graph(g) = &s else { panic!("{s:?}") };
            assert!(g.name().is_none());
            // Anonymous graphs ship inline and round-trip by content.
            let back = registry.parse_spec_line(&s.to_spec_line()).unwrap();
            assert_eq!(back, s);
        }
        assert_eq!(registry.dynamic_count(), 0, "inline parsing registers nothing");
    }

    #[test]
    fn reserved_and_invalid_names_are_rejected() {
        let registry = ScenarioRegistry::new();
        for name in ["graph", "fir-bank", "dwt-packet"] {
            let err = registry.define_graph_json(name, DEMO_GRAPH).unwrap_err();
            assert!(err.to_string().contains("reserved"), "{name}: {err}");
        }
        assert!(registry.define_graph_json("has space", DEMO_GRAPH).is_err());
        assert!(registry.define_graph_json("", DEMO_GRAPH).is_err());
        // Invalid graph bodies are typed GraphSpec errors.
        assert!(matches!(
            registry.define_graph_json("ok-name", "{\"nodes\":[]}"),
            Err(EngineError::GraphSpec(_))
        ));
        assert_eq!(registry.dynamic_count(), 0);
    }

    #[test]
    fn unknown_names_list_everything_served() {
        let registry = ScenarioRegistry::new();
        registry.define_graph_json("my-codec", DEMO_GRAPH).unwrap();
        let err = registry.parse_spec_line("no-such").unwrap_err().to_string();
        assert!(err.contains("fir-bank") && err.contains("my-codec"), "{err}");
        assert!(err.contains("graph={"), "{err}");
    }

    #[test]
    fn redefinition_replaces_and_identical_content_is_stable() {
        let registry = ScenarioRegistry::new();
        let a = registry.define_graph_json("c", DEMO_GRAPH).unwrap();
        let b = registry.define_graph_json("c", DEMO_GRAPH).unwrap();
        assert_eq!(a, b, "identical content, identical identity");
        let other = DEMO_GRAPH.replace("0.3", "0.4");
        let c = registry.define_graph_json("c", &other).unwrap();
        assert_ne!(a, c);
        assert_eq!(registry.dynamic_count(), 1, "same name, replaced");
        let Scenario::Graph(now) = registry.parse_spec_line("c").unwrap() else { panic!() };
        assert_eq!(now, c, "latest definition wins");
    }
}
