//! `BENCHMARK.json` is the one place a workload or metric is declared:
//! the harness compiles it in and takes units, directions and bounds from
//! it, so the file the driver reads and the names the harness prints
//! cannot drift apart.

use crate::json::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse;
    /// only end-to-end metrics have one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metrics(root: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let arr = root
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
    arr.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` metric lacks `{f}`"))
            };
            let name = field("name")?.to_owned();
            Ok(MetricDef {
                unit: field("unit")?.to_owned(),
                higher_is_better: match field("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{name}: `better` is `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
                name,
            })
        })
        .collect()
}

impl Manifest {
    /// Parses the compiled-in file and enforces the limits the driver
    /// refuses a benchmark for.
    pub fn load() -> Result<Self, String> {
        let root = Json::parse(TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads: Vec<String> = root
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no `workloads` list")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        let m = Manifest {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")? as u64,
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        };
        if !(2..=8).contains(&m.workloads.len())
            || !(1..=16).contains(&m.end_to_end.len())
            || !(1..=128).contains(&m.per_layer.len())
        {
            return Err(format!(
                "BENCHMARK.json: {} workloads / {} end-to-end / {} per-layer metrics \
                 is outside 2..=8 / 1..=16 / 1..=128",
                m.workloads.len(),
                m.end_to_end.len(),
                m.per_layer.len()
            ));
        }
        let mut names: Vec<&str> = m
            .workloads
            .iter()
            .chain(m.end_to_end.iter().map(|d| &d.name))
            .chain(m.per_layer.iter().map(|d| &d.name))
            .map(String::as_str)
            .collect();
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!("BENCHMARK.json: bad name `{bad}`"));
        }
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("BENCHMARK.json: name `{}` used twice", dup[0]));
        }
        if let Some(d) = m.end_to_end.iter().find(|d| d.bound.is_none()) {
            return Err(format!("BENCHMARK.json: `{}` has no bound", d.name));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_is_within_the_drivers_limits() {
        let m = Manifest::load().unwrap();
        assert_eq!(m.workloads, crate::gen::WORKLOADS);
        assert!(m
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
        assert!(m.end_to_end.iter().all(|d| d.bound.unwrap() <= 0.25));
        assert!(TEXT.len() <= 64 << 10);
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("kvserver.stage.batch_seal_p50_us"));
        assert!(valid_name("1st"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
