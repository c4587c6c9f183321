//! The benchmark's declaration, `BENCHMARK.json` at the repository root:
//! workloads, metric names, units, directions and regression bounds.
//! Read through the workspace's own JSON reader and embedded at build
//! time, so `compare` judges with exactly the bounds the binary was
//! built against.

use bgr_io::Json;

/// The root `BENCHMARK.json`, embedded.
pub const MANIFEST: &str = include_str!("../../../../../BENCHMARK.json");

/// At most this many end-to-end metrics may be declared.
pub const MAX_END_TO_END: usize = 16;
/// At most this many per-layer metrics may be declared.
pub const MAX_PER_LAYER: usize = 128;
/// The widest regression bound a metric may declare.
pub const MAX_BOUND: f64 = 0.25;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Manifest {
    /// Parses and validates a declaration.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let str_field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = str_field(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("BENCHMARK.json: bad `better` {better:?}"));
                    }
                    let bound = match (bounded, m.get("bound").and_then(Json::as_f64)) {
                        (true, None) => {
                            return Err("BENCHMARK.json: end-to-end metric without bound".into())
                        }
                        (_, bound) => bound,
                    };
                    Ok(MetricDecl {
                        name: str_field(m, "name")?,
                        unit: str_field(m, "unit")?,
                        lower_is_better: better == "lower",
                        bound,
                    })
                })
                .collect()
        };
        let manifest = Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| str_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// The embedded root declaration.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file is malformed (a build-time mistake,
    /// caught by the unit tests).
    pub fn embedded() -> Self {
        Self::parse(MANIFEST).expect("embedded BENCHMARK.json is valid")
    }

    /// The end-to-end declaration of `name`, if any.
    pub fn end_to_end(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    fn validate(&self) -> Result<(), String> {
        if self.end_to_end.is_empty() || self.end_to_end.len() > MAX_END_TO_END {
            return Err(format!(
                "{} end-to-end metrics (1..={MAX_END_TO_END} allowed)",
                self.end_to_end.len()
            ));
        }
        if self.per_layer.is_empty() || self.per_layer.len() > MAX_PER_LAYER {
            return Err(format!(
                "{} per-layer metrics (1..={MAX_PER_LAYER} allowed)",
                self.per_layer.len()
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        let names = self.workloads.iter().chain(
            self.end_to_end
                .iter()
                .chain(&self.per_layer)
                .map(|m| &m.name),
        );
        for name in names {
            if !valid_name(name) {
                return Err(format!("invalid name {name:?}"));
            }
            if !seen.insert(name) {
                return Err(format!("name {name:?} used twice"));
            }
        }
        for m in &self.end_to_end {
            let bound = m.bound.unwrap_or(f64::NAN);
            if !(0.0..=MAX_BOUND).contains(&bound) {
                return Err(format!("{}: bound {bound} outside 0..={MAX_BOUND}", m.name));
            }
        }
        match self.end_to_end("setup_s") {
            Some(m) if m.unit == "s" && m.lower_is_better => Ok(()),
            _ => Err("`setup_s` (unit s, lower is better) must be declared".into()),
        }
    }
}

/// Whether `name` is a legal workload or metric name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(legal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(e2e: usize, layers: usize) -> String {
        let metric = |name: String, bound: bool| {
            let bound = if bound { ", \"bound\": 0.1" } else { "" };
            format!("{{\"name\": \"{name}\", \"unit\": \"s\", \"better\": \"lower\"{bound}}}")
        };
        let e2e: Vec<String> = std::iter::once("setup_s".to_owned())
            .chain((1..e2e).map(|i| format!("m{i}")))
            .map(|n| metric(n, true))
            .collect();
        let layers: Vec<String> = (0..layers)
            .map(|i| metric(format!("l.{i}"), false))
            .collect();
        format!(
            "{{\"workloads\": [{{\"name\": \"w\", \"why\": \"x\"}}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
            e2e.join(","),
            layers.join(",")
        )
    }

    #[test]
    fn embedded_declaration_is_valid() {
        let m = Manifest::embedded();
        assert!(!m.workloads.is_empty());
        assert!(m.end_to_end("setup_s").is_some());
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "latency_s",
            "core.rekey_graph.share",
            "io.parse-ms",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "a:b",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn metric_count_caps() {
        assert!(Manifest::parse(&decl(MAX_END_TO_END, MAX_PER_LAYER)).is_ok());
        assert!(Manifest::parse(&decl(MAX_END_TO_END + 1, 1)).is_err());
        assert!(Manifest::parse(&decl(1, MAX_PER_LAYER + 1)).is_err());
        assert!(Manifest::parse(&decl(1, 0)).is_err());
    }

    #[test]
    fn rejects_wide_bounds_and_missing_setup() {
        let wide = decl(2, 1).replace("\"bound\": 0.1", "\"bound\": 0.3");
        assert!(Manifest::parse(&wide).is_err());
        let no_setup = decl(2, 1).replace("setup_s", "boot_s");
        assert!(Manifest::parse(&no_setup).is_err());
    }
}
