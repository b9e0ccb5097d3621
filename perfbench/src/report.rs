//! Metric names, the result line and the run stamp.
//!
//! The two tables below are the benchmark's contract: `BENCHMARK.json`
//! lists the same names and units (a test keeps them in step), and every
//! run prints every name of its table.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Printed by untraced runs (`--trace 0`), on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_mrec_s", "Mrec/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Printed by traced runs (`--trace 1`), on every workload; per op unless
/// the name says otherwise.  `README.md` says which end-to-end metric
/// each should move, and on which workload.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("dtsort.sample_ms", "ms"),
    ("dtsort.distribute_ms", "ms"),
    ("dtsort.recurse_ms", "ms"),
    ("dtsort.merge_ms", "ms"),
    ("dtsort.base_case_calls", "count"),
    ("dtsort.base_case_frac", "frac"),
    ("dtsort.heavy_frac", "frac"),
    ("dtsort.moved_per_rec", "count"),
    ("dtsort.max_depth", "count"),
    ("baselines.plis_ms", "ms"),
    ("baselines.lsd_ms", "ms"),
    ("stream.push_ms", "ms"),
    ("stream.flush_ms", "ms"),
    ("stream.finish_ms", "ms"),
    ("stream.drain_ms", "ms"),
    ("stream.sort_ms", "ms"),
    ("stream.runs", "count"),
    ("spill.backpressure_ms", "ms"),
    ("spill.write_ms", "ms"),
    ("spill.fsync_ms", "ms"),
    ("spill.retries", "count"),
    ("spill.degraded_syncs", "count"),
    ("spill.bytes_per_rec", "B"),
    ("spill.comp_ratio", "ratio"),
    ("prefetch.stall_ms", "ms"),
    ("prefetch.disabled_merges", "count"),
    ("spillio.jobs", "count"),
    ("spillio.inline_jobs", "count"),
    ("spillio.complete_ms", "ms"),
    ("groupby.aggregate_ms", "ms"),
    ("groupby.partials_per_rec", "frac"),
    ("server.open_ms", "ms"),
    ("server.push_ms", "ms"),
    ("server.finish_ms", "ms"),
    ("server.drain_ms", "ms"),
    ("server.sessions_failed", "count"),
    ("governor.admission_wait_ms", "ms"),
    ("governor.reclaims_per_session", "count"),
    ("pool.steals", "count"),
    ("pool.parks", "count"),
    ("pool.wakes", "count"),
    ("obs.trace_overhead_frac", "frac"),
];

/// Metric and workload names: a letter or digit, then up to 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A number as JSON, with every digit Rust's shortest round-trip form
/// keeps.  Non-finite values cannot appear in JSON and read as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: the last line a run prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A stamp value: a JSON number or string.
#[derive(Debug, Clone, PartialEq)]
pub enum Stamp {
    Num(f64),
    Text(String),
}

/// The run stamp, printed on the line before the result as
/// `{"stamp": {...}}`.
pub fn stamp_json(fields: &[(&str, Stamp)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| match v {
            Stamp::Num(n) => format!("\"{k}\": {}", number(*n)),
            Stamp::Text(s) => format!(
                "\"{k}\": \"{}\"",
                s.replace('\\', "\\\\").replace('"', "\\\"")
            ),
        })
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

/// The checkout's git revision, read from `.git` under `root` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_revision(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn name_grammar() {
        assert!(valid_name("throughput_mrec_s"));
        assert!(valid_name("spill.fsync_ms"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("Mrec/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_reported_name_and_unit_is_valid_and_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            names.push(name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "names must be unique");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric {
            name: "op_p50_ms",
            unit: "ms",
            value: 1.25,
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(
            stamp_json(&[
                ("seed", Stamp::Num(7.0)),
                ("rev", Stamp::Text("a\"b".into()))
            ]),
            "{\"stamp\": {\"seed\": 7, \"rev\": \"a\\\"b\"}}"
        );
    }
}
