//! One codec for the analysis knobs every surface exposes.
//!
//! The CLI (`--function/--multiplier/--threads/--read-buffer/--no-mmap/
//! --partial`), the daemon's query parameters
//! (`?function=&multiplier=&threads=&read-buffer=&no-mmap&partial`) and
//! the HTTP client all describe the same six knobs of an
//! [`AnalysisConfig`] + [`RecoveryMode`] pair. Historically each surface
//! parsed them independently, and the dialects drifted (the daemon
//! accepted `multiplier` but not `threads`; the client had to know which
//! spelling each end understood). [`AnalysisOptions`] is the single
//! source of truth: one struct, one set of keys, one validator —
//! [`absorb`](AnalysisOptions::absorb) — that the CLI feeds its flags
//! and the daemon its query parameters, so the dialects cannot drift
//! again.
//!
//! Keys the codec does *not* own (`path`, `steps`, …) pass through
//! untouched: [`absorb`](AnalysisOptions::absorb) returns `Ok(false)`,
//! so callers layer their surface-specific parameters on top.

use crate::outofcore::RecoveryMode;
use crate::report::AnalysisConfig;
use std::fmt;

/// The analysis knobs shared by the CLI and the daemon:
/// the segmentation override, the dominant-rule multiplier, the two
/// I/O performance knobs, and the damaged-archive recovery switch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Segment by this function instead of the predicted dominant one
    /// (`--function NAME` / `function=NAME`).
    pub function: Option<String>,
    /// Invocation-count multiplier of the dominant-function rule
    /// (`--multiplier K` / `multiplier=K`; the paper's §IV uses 2).
    pub multiplier: u64,
    /// Worker threads (`--threads N` / `threads=N`; 0 = available
    /// parallelism).
    pub threads: usize,
    /// Buffered read-window bytes (`--read-buffer BYTES` /
    /// `read-buffer=BYTES`; must be ≥ 1).
    pub read_buffer: usize,
    /// Memory-map stream files where possible (`--no-mmap` / `no-mmap`
    /// turns this off).
    pub mmap: bool,
    /// Recover intact ranks of a damaged archive instead of failing
    /// (`--partial` / `partial`).
    pub partial: bool,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        let config = AnalysisConfig::default();
        AnalysisOptions {
            function: None,
            multiplier: config.dominant_multiplier,
            threads: config.threads,
            read_buffer: config.read_buffer_bytes,
            mmap: config.mmap,
            partial: false,
        }
    }
}

/// A knob the codec rejected: carries the key, the offending value and
/// why — every surface renders it its own way (CLI usage error, daemon
/// `bad-request` envelope).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptionsError {
    /// The canonical key (`"multiplier"`, `"threads"`, …).
    pub key: &'static str,
    /// The rejected raw value (empty for a missing one).
    pub value: String,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} {:?}: {}", self.key, self.value, self.reason)
    }
}

impl std::error::Error for OptionsError {}

fn invalid(key: &'static str, value: &str, reason: impl Into<String>) -> OptionsError {
    OptionsError {
        key,
        value: value.to_string(),
        reason: reason.into(),
    }
}

impl AnalysisOptions {
    /// The keys the codec owns: valued keys first, then the boolean
    /// flags.
    pub const KEYS: &'static [&'static str] = &[
        "function",
        "multiplier",
        "threads",
        "read-buffer",
        "no-mmap",
        "partial",
    ];

    /// Writes the knobs into `config` (the non-knob fields are left
    /// alone).
    pub fn apply(&self, config: &mut AnalysisConfig) {
        config.segment_function = self.function.clone();
        config.dominant_multiplier = self.multiplier;
        config.threads = self.threads;
        config.read_buffer_bytes = self.read_buffer;
        config.mmap = self.mmap;
    }

    /// The config these options describe, from defaults.
    pub fn config(&self) -> AnalysisConfig {
        let mut config = AnalysisConfig::default();
        self.apply(&mut config);
        config
    }

    /// The recovery mode these options select.
    pub fn recovery_mode(&self) -> RecoveryMode {
        if self.partial {
            RecoveryMode::Partial
        } else {
            RecoveryMode::Strict
        }
    }

    /// Absorbs one `key`/`value` pair. Returns `Ok(false)` when the key
    /// is not one of [`KEYS`](AnalysisOptions::KEYS) (the caller's
    /// problem), `Err` when it is but the value does not validate.
    /// Boolean flags (`no-mmap`, `partial`) accept a missing value.
    pub fn absorb(&mut self, key: &str, value: Option<&str>) -> Result<bool, OptionsError> {
        match key {
            "function" => {
                let v = value.ok_or_else(|| invalid("function", "", "missing function name"))?;
                if v.is_empty() {
                    return Err(invalid("function", v, "missing function name"));
                }
                self.function = Some(v.to_string());
            }
            "multiplier" => {
                let v = value.ok_or_else(|| invalid("multiplier", "", "missing value"))?;
                self.multiplier = v
                    .parse::<u64>()
                    .map_err(|e| invalid("multiplier", v, e.to_string()))?;
            }
            "threads" => {
                let v = value.ok_or_else(|| invalid("threads", "", "missing value"))?;
                self.threads = v
                    .parse::<usize>()
                    .map_err(|e| invalid("threads", v, e.to_string()))?;
            }
            "read-buffer" => {
                let v = value.ok_or_else(|| invalid("read-buffer", "", "missing value"))?;
                let bytes = v
                    .parse::<usize>()
                    .map_err(|e| invalid("read-buffer", v, e.to_string()))?;
                if bytes == 0 {
                    return Err(invalid("read-buffer", v, "must be at least 1 byte"));
                }
                self.read_buffer = bytes;
            }
            "no-mmap" => self.mmap = false,
            "partial" => self.partial = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The diagnosis knobs shared by `perfvar diagnose` and the daemon's
/// `/v1/diagnose`: the cluster-count override, the merge threshold, and
/// the summarised-heatmap row cap. Same contract as
/// [`AnalysisOptions`]: one validator for argv and the wire, unknown
/// keys pass through.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnoseOptions {
    /// Merge down to exactly this many clusters (`--clusters K` /
    /// `clusters=K`) instead of using the distance threshold.
    pub clusters: Option<usize>,
    /// Relative merge-stop distance (`--cluster-threshold X` /
    /// `cluster-threshold=X`), in units of the global SOS RMS.
    pub threshold: f64,
    /// Hard cap on reported clusters — one summarised heatmap row each
    /// (`--max-clusters N` / `max-clusters=N`).
    pub max_clusters: usize,
}

impl Default for DiagnoseOptions {
    fn default() -> DiagnoseOptions {
        let config = crate::diagnose::DiagnoseConfig::default();
        DiagnoseOptions {
            clusters: config.cluster.num_clusters,
            threshold: config.cluster.distance_threshold,
            max_clusters: config.max_clusters,
        }
    }
}

impl DiagnoseOptions {
    /// The keys this codec owns.
    pub const KEYS: &'static [&'static str] = &["clusters", "cluster-threshold", "max-clusters"];

    /// The [`DiagnoseConfig`](crate::diagnose::DiagnoseConfig) these
    /// options describe, from defaults.
    pub fn config(&self) -> crate::diagnose::DiagnoseConfig {
        let mut config = crate::diagnose::DiagnoseConfig::default();
        config.cluster.num_clusters = self.clusters;
        config.cluster.distance_threshold = self.threshold;
        config.max_clusters = self.max_clusters;
        config
    }

    /// Absorbs one `key`/`value` pair; `Ok(false)` for unowned keys,
    /// `Err` for owned keys with invalid values.
    pub fn absorb(&mut self, key: &str, value: Option<&str>) -> Result<bool, OptionsError> {
        match key {
            "clusters" => {
                let v = value.ok_or_else(|| invalid("clusters", "", "missing value"))?;
                let k = v
                    .parse::<usize>()
                    .map_err(|e| invalid("clusters", v, e.to_string()))?;
                if k == 0 {
                    return Err(invalid("clusters", v, "must be at least 1"));
                }
                self.clusters = Some(k);
            }
            "cluster-threshold" => {
                let v = value.ok_or_else(|| invalid("cluster-threshold", "", "missing value"))?;
                let t = v
                    .parse::<f64>()
                    .map_err(|e| invalid("cluster-threshold", v, e.to_string()))?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(invalid("cluster-threshold", v, "must be finite and > 0"));
                }
                self.threshold = t;
            }
            "max-clusters" => {
                let v = value.ok_or_else(|| invalid("max-clusters", "", "missing value"))?;
                let n = v
                    .parse::<usize>()
                    .map_err(|e| invalid("max-clusters", v, e.to_string()))?;
                if n == 0 {
                    return Err(invalid("max-clusters", v, "must be at least 1"));
                }
                self.max_clusters = n;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a raw query string the way the daemon does: every pair
    /// goes through `absorb`, unowned keys pass through.
    fn analysis_options(query: &str) -> Result<AnalysisOptions, OptionsError> {
        let mut options = AnalysisOptions::default();
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            match pair.split_once('=') {
                Some((key, value)) => options.absorb(key, Some(value))?,
                None => options.absorb(pair, None)?,
            };
        }
        Ok(options)
    }

    /// Same for the diagnosis knobs.
    fn diagnose_options(query: &str) -> Result<DiagnoseOptions, OptionsError> {
        let mut options = DiagnoseOptions::default();
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            options.absorb(key, Some(value))?;
        }
        Ok(options)
    }

    /// No knobs given: the default config, in strict mode.
    #[test]
    fn defaults_encode_to_nothing() {
        let o = analysis_options("").unwrap();
        assert_eq!(o, AnalysisOptions::default());
        let config = o.config();
        let defaults = AnalysisConfig::default();
        assert_eq!(config.segment_function, defaults.segment_function);
        assert_eq!(config.dominant_multiplier, defaults.dominant_multiplier);
        assert_eq!(config.threads, defaults.threads);
        assert_eq!(config.read_buffer_bytes, defaults.read_buffer_bytes);
        assert_eq!(config.mmap, defaults.mmap);
        assert_eq!(o.recovery_mode(), RecoveryMode::Strict);
    }

    #[test]
    fn unknown_query_keys_pass_through() {
        let mut o = AnalysisOptions::default();
        assert!(!o.absorb("path", Some("/tmp/a.pvta")).unwrap());
        assert!(!o.absorb("steps", Some("2")).unwrap());
        assert_eq!(o, AnalysisOptions::default());
        let o = analysis_options("path=/tmp/a.pvta&threads=4&steps=2&partial").unwrap();
        assert_eq!(o.threads, 4);
        assert!(o.partial);
        assert_eq!(o.function, None);
    }

    #[test]
    fn bad_values_name_the_key() {
        let mut o = AnalysisOptions::default();
        let err = o.absorb("multiplier", Some("abc")).unwrap_err();
        assert_eq!(err.key, "multiplier");
        let err = o.absorb("read-buffer", Some("0")).unwrap_err();
        assert_eq!(err.key, "read-buffer");
        assert!(err.to_string().contains("at least 1 byte"), "{err}");
        let err = o.absorb("function", Some("")).unwrap_err();
        assert_eq!(err.key, "function");
        let err = o.absorb("threads", None).unwrap_err();
        assert_eq!(err.key, "threads");
        // A rejected value leaves the options untouched.
        assert_eq!(o, AnalysisOptions::default());
    }

    #[test]
    fn config_round_trip() {
        let o = analysis_options("function=MPI_Allreduce&threads=7&no-mmap&partial").unwrap();
        assert_eq!(
            o,
            AnalysisOptions {
                function: Some("MPI_Allreduce".into()),
                threads: 7,
                mmap: false,
                partial: true,
                ..AnalysisOptions::default()
            }
        );
        let config = o.config();
        assert_eq!(config.segment_function.as_deref(), Some("MPI_Allreduce"));
        assert_eq!(config.threads, 7);
        assert!(!config.mmap);
        assert_eq!(o.recovery_mode(), RecoveryMode::Partial);
        // `apply` writes exactly the knobs into an existing config.
        let mut other = AnalysisConfig {
            analyze_counters: false,
            ..AnalysisConfig::default()
        };
        o.apply(&mut other);
        assert_eq!(other.segment_function, config.segment_function);
        assert_eq!(other.threads, 7);
        assert!(!other.mmap);
        assert!(!other.analyze_counters);
    }

    #[test]
    fn diagnose_defaults_encode_to_nothing() {
        let o = diagnose_options("").unwrap();
        assert_eq!(o, DiagnoseOptions::default());
        let config = o.config();
        assert_eq!(config.max_clusters, 20);
    }

    #[test]
    fn diagnose_bad_values_name_the_key() {
        let err = diagnose_options("clusters=0").unwrap_err();
        assert_eq!(err.key, "clusters");
        let err = diagnose_options("cluster-threshold=-1").unwrap_err();
        assert_eq!(err.key, "cluster-threshold");
        let err = diagnose_options("cluster-threshold=nope").unwrap_err();
        assert_eq!(err.key, "cluster-threshold");
        let err = diagnose_options("max-clusters=0").unwrap_err();
        assert_eq!(err.key, "max-clusters");
        // Unknown keys pass through untouched.
        let o = diagnose_options("path=/tmp/x&clusters=3").unwrap();
        assert_eq!(o.clusters, Some(3));
    }
}
