//! Checks suite artefacts against the stored reference.
//!
//! The rule is the one the repository's fixed-vs-adaptive test applies:
//! numbers agree within 1% relative, or differ by less than 1e-3 of the
//! largest magnitude in the artefact. NaN cells serialise as `null`, so NaN
//! positions must be identical. Everything else must be equal, except the
//! measured wall-clock throughput the engine experiment writes into its
//! notes.

use std::path::{Path, PathBuf};

use ftcam_core::Artifact;
use serde::{Serialize, Value};

/// Where the reference artefacts of a suite workload are stored.
fn path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.json"))
}

/// Loads the reference artefacts of a suite workload.
pub fn load(workload: &str) -> Result<Vec<Artifact>, String> {
    let path = path(workload);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Stores reference artefacts (without their execution statistics).
pub fn save(workload: &str, artifacts: &[Artifact]) -> std::io::Result<PathBuf> {
    let path = path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(&artifacts.to_vec()).map_err(std::io::Error::other)?;
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// Every place where `actual` departs from `expected` under the rule above
/// (empty when they agree).
pub fn mismatches(expected: &Artifact, actual: &Artifact) -> Vec<String> {
    let mut expected = expected.clone();
    let mut actual = actual.clone();
    expected.clear_exec();
    actual.clear_exec();
    let (e, a) = (expected.to_value(), actual.to_value());
    let mut out = Vec::new();
    compare(&e, &a, max_abs(&e), expected.id(), &mut out);
    out
}

fn compare(expected: &Value, actual: &Value, scale: f64, path: &str, out: &mut Vec<String>) {
    match (expected, actual) {
        (Value::Num(x), Value::Num(y)) => {
            let (x, y) = (x.as_f64(), y.as_f64());
            let diff = (x - y).abs();
            let rel = diff / x.abs().max(y.abs()).max(1e-30);
            if !(rel < 0.01 || diff < 1e-3 * scale) {
                out.push(format!("{path}: expected {x:e}, got {y:e}"));
            }
        }
        (Value::Seq(xs), Value::Seq(ys)) if xs.len() == ys.len() => {
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                compare(x, y, scale, &format!("{path}[{i}]"), out);
            }
        }
        (Value::Map(xs), Value::Map(ys)) if xs.len() == ys.len() => {
            for ((kx, x), (ky, y)) in xs.iter().zip(ys) {
                if kx == ky {
                    compare(x, y, scale, &format!("{path}.{kx}"), out);
                } else {
                    out.push(format!("{path}: key {kx} where {ky} was expected"));
                }
            }
        }
        (Value::Str(x), Value::Str(y)) if mask_throughput(x) == mask_throughput(y) => {}
        _ if expected == actual => {}
        _ => out.push(format!(
            "{path}: expected {}, got {}",
            expected.kind_name(),
            actual.kind_name()
        )),
    }
}

/// Largest |number| in a value tree.
fn max_abs(v: &Value) -> f64 {
    match v {
        Value::Num(x) => x.as_f64().abs(),
        Value::Seq(xs) => xs.iter().map(max_abs).fold(0.0, f64::max),
        Value::Map(xs) => xs.iter().map(|(_, x)| max_abs(x)).fold(0.0, f64::max),
        _ => 0.0,
    }
}

/// Replaces the number before each `queries/s` with `#`: the engine
/// experiment notes its measured wall-clock throughput.
fn mask_throughput(s: &str) -> String {
    const UNIT: &str = " queries/s";
    let mut out = String::new();
    let mut rest = s;
    while let Some(at) = rest.find(UNIT) {
        let head = &rest[..at];
        let number_start = head
            .rfind(|c: char| !c.is_ascii_digit() && c != '.')
            .map_or(0, |i| i + 1);
        out.push_str(&head[..number_start]);
        out.push('#');
        out.push_str(UNIT);
        rest = &rest[at + UNIT.len()..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_core::Table;

    fn table(cells: Vec<f64>, note: &str) -> Artifact {
        let columns = (0..cells.len()).map(|i| i.to_string()).collect();
        let mut t = Table::new("t", "test", columns);
        t.push("row", cells);
        t.note(note);
        Artifact::Table(t)
    }

    #[test]
    fn identical_artifacts_agree() {
        let a = table(
            vec![1.0, f64::NAN, 100.0],
            "1024 rows: 5 queries/s wall-clock",
        );
        assert!(mismatches(&a, &a.clone()).is_empty());
    }

    #[test]
    fn a_perturbed_cell_is_flagged() {
        let a = table(vec![1.0, 2.0, 100.0], "n");
        let within = table(vec![1.0, 2.0, 100.5], "n");
        assert!(mismatches(&a, &within).is_empty());
        let small_absolute = table(vec![1.0 + 0.05, 2.0, 100.0], "n");
        assert!(mismatches(&a, &small_absolute).is_empty());
        let perturbed = table(vec![1.0, 2.5, 100.0], "n");
        let found = mismatches(&a, &perturbed);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("[1]"), "{found:?}");
    }

    #[test]
    fn nan_positions_must_match() {
        let a = table(vec![1.0, f64::NAN, 3.0], "n");
        let moved = table(vec![f64::NAN, 2.0, 3.0], "n");
        assert_eq!(mismatches(&a, &moved).len(), 2);
    }

    #[test]
    fn only_the_measured_throughput_may_differ_in_notes() {
        let a = table(
            vec![1.0],
            "4096 rows: 51234 queries/s wall-clock, 2048/2048 metered",
        );
        let b = table(
            vec![1.0],
            "4096 rows: 987 queries/s wall-clock, 2048/2048 metered",
        );
        assert!(mismatches(&a, &b).is_empty());
        let c = table(
            vec![1.0],
            "4096 rows: 987 queries/s wall-clock, 2047/2048 metered",
        );
        assert_eq!(mismatches(&a, &c).len(), 1);
    }
}
