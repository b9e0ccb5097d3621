//! Machine-readable benchmark output shared by the `BENCH_*.json` writers.
//!
//! Every throughput/scalability binary appends its results to a JSON file
//! in the current directory so successive PRs can track the perf
//! trajectory; this module holds the one escaping + envelope writer they
//! all use, so the file format cannot silently diverge between benches.

use std::io::Write;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes the standard bench envelope to `path`:
///
/// ```json
/// { "bench": <name>, <scalars...>, "host_cpus": <n>, "git_rev": <rev>,
///   "results": [ <rows...> ] }
/// ```
///
/// `scalars` are emitted in order as raw JSON values (callers pass
/// pre-formatted numbers); each element of `rows` must be one complete
/// JSON object literal.  Every envelope is stamped with the host's CPU
/// count (as the process's CPU affinity sees it) and the git revision of
/// the checkout in the current directory ([`git_revision`]), so callers
/// pass neither.  Logs the outcome to stdout/stderr like every bench
/// binary always has.
pub fn write_bench_json(path: &str, bench: &str, scalars: &[(&str, String)], rows: &[String]) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_rev = git_revision(std::path::Path::new("."));
    let stamps = [
        ("host_cpus", host_cpus.to_string()),
        ("git_rev", format!("\"{}\"", json_escape(&git_rev))),
    ];
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    for (key, value) in scalars.iter().chain(&stamps) {
        body.push_str(&format!("  \"{}\": {},\n", json_escape(key), value));
    }
    body.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str("    ");
        body.push_str(row);
        body.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    body.push_str("  ]\n}\n");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(body.as_bytes())) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The git revision of the checkout at `root`, read from `.git` without
/// running git (a detached `HEAD`, a loose ref, or `packed-refs`);
/// `"unknown"` outside a git checkout.
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

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn envelope_is_valid_shape() {
        let dir = std::env::temp_dir().join(format!("pisort-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_bench_json(
            path.to_str().unwrap(),
            "demo",
            &[("n", "5".to_string())],
            &[r#"{"x": 1}"#.to_string(), r#"{"x": 2}"#.to_string()],
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"demo\""));
        assert!(body.contains("\"n\": 5"));
        assert!(body.contains("{\"x\": 1},"));
        assert!(body.ends_with("  ]\n}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_stamps_host_cpus_and_git_rev_once() {
        let dir = std::env::temp_dir().join(format!("pisort-stamp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_bench_json(
            path.to_str().unwrap(),
            "demo",
            &[("threads", "2".to_string())],
            &[],
        );
        let body = std::fs::read_to_string(&path).unwrap();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(body.matches("\"host_cpus\":").count(), 1, "{body}");
        assert!(body.contains(&format!("\"host_cpus\": {cpus},")), "{body}");
        assert_eq!(body.matches("\"git_rev\":").count(), 1, "{body}");
        let rev = git_revision(std::path::Path::new("."));
        assert!(body.contains(&format!("\"git_rev\": \"{rev}\",")), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_revision_follows_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("pisort-rev-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_revision(&dir.join("missing")), "unknown");
        std::fs::write(git.join("HEAD"), "abc123\n").unwrap();
        assert_eq!(git_revision(&dir), "abc123");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\ndef456 refs/heads/main\n").unwrap();
        assert_eq!(git_revision(&dir), "def456");
        std::fs::write(git.join("refs/heads/main"), "0789ab\n").unwrap();
        assert_eq!(git_revision(&dir), "0789ab");
        std::fs::remove_dir_all(&dir).ok();
    }
}
