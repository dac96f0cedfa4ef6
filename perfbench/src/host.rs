//! The host a result was measured on, the result file, and comparing
//! two result files.
//!
//! A result file is line-oriented: `key<TAB>value` for the header and
//! host fields, `metric<TAB>name<TAB>value<TAB>unit` per metric, and
//! `row<TAB>text` per per-program row.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where a result was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// CPU architecture.
    pub arch: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Build profile of the benchmark binary.
    pub profile: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Describes the running process.
    pub fn current() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            arch: std::env::consts::ARCH.to_string(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    fn fields(&self) -> [(&'static str, String); 5] {
        [
            ("host.nproc", self.nproc.to_string()),
            ("host.arch", self.arch.clone()),
            ("host.rustc", self.rustc.clone()),
            ("host.profile", self.profile.clone()),
            ("host.commit", self.commit.clone()),
        ]
    }
}

/// Reads the commit of the checkout the benchmark runs from (its
/// `.git/HEAD`, following one symbolic ref, loose or packed). Only the
/// working directory is looked at: the benchmark reads nothing outside
/// its checkout.
fn git_commit() -> Option<String> {
    let git = std::env::current_dir().ok()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_string())
    })
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run writes to its result file.
pub struct ResultFile<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Host record.
    pub host: Host,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations failed or wrong.
    pub failed: u64,
    /// Every metric the run computed.
    pub metrics: Vec<Metric>,
    /// Per-program rows (human-readable).
    pub rows: Vec<String>,
}

impl ResultFile<'_> {
    /// Writes the file to `dir`, named after workload, seed and mode.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "result-{}-seed{}-trace{}.tsv",
            self.workload, self.seed, self.trace as u8
        ));
        let mut s = String::new();
        s.push_str(&format!("workload\t{}\n", self.workload));
        s.push_str(&format!("seed\t{}\n", self.seed));
        s.push_str(&format!("trace\t{}\n", self.trace as u8));
        for (k, v) in self.host.fields() {
            s.push_str(&format!("{k}\t{v}\n"));
        }
        s.push_str(&format!("attempted\t{}\n", self.attempted));
        s.push_str(&format!("failed\t{}\n", self.failed));
        for m in &self.metrics {
            s.push_str(&format!("metric\t{}\t{}\t{}\n", m.name, m.value, m.unit));
        }
        for r in &self.rows {
            s.push_str(&format!("row\t{r}\n"));
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// A result file read back: header fields and metrics by name.
struct Parsed {
    fields: BTreeMap<String, String>,
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse(path: &Path) -> Result<Parsed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut fields = BTreeMap::new();
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let parts: Vec<&str> = line.split('\t').collect();
        match parts.as_slice() {
            ["metric", name, value, unit] => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("{}: bad value in {line:?}", path.display()))?;
                metrics.insert(name.to_string(), (v, unit.to_string()));
            }
            ["row", ..] => {}
            [k, v] => {
                fields.insert(k.to_string(), v.to_string());
            }
            _ => return Err(format!("{}: unreadable line {line:?}", path.display())),
        }
    }
    Ok(Parsed { fields, metrics })
}

/// Host fields whose difference makes two results incomparable. The
/// commit is left out: comparing commits is the point.
const HOST_KEYS: [&str; 4] = ["host.nproc", "host.arch", "host.rustc", "host.profile"];

/// Prints each metric of two result files side by side, with a warning
/// first when they were measured on different hosts. Returns the
/// warnings printed.
pub fn compare(a: &Path, b: &Path) -> Result<Vec<String>, String> {
    let (pa, pb) = (parse(a)?, parse(b)?);
    let mut warnings = Vec::new();
    for k in HOST_KEYS {
        let (va, vb) = (pa.fields.get(k), pb.fields.get(k));
        if va != vb {
            warnings.push(format!(
                "warning: results come from different hosts: {k} is {} vs {}",
                va.map_or("missing", |s| s.as_str()),
                vb.map_or("missing", |s| s.as_str())
            ));
        }
    }
    if pa.fields.get("workload") != pb.fields.get("workload") {
        warnings.push("warning: results are of different workloads".to_string());
    }
    for w in &warnings {
        println!("{w}");
    }
    println!(
        "{:<28} {:>16} {:>16} {:>9}  unit",
        "metric", "a", "b", "b/a"
    );
    for (name, (va, unit)) in &pa.metrics {
        if let Some((vb, _)) = pb.metrics.get(name) {
            let r = crate::stats::ratio(*vb, *va);
            println!("{name:<28} {va:>16.4} {vb:>16.4} {r:>9.4}  {unit}");
        }
    }
    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, host: Host) -> PathBuf {
        ResultFile {
            workload: "kernels",
            seed: 1,
            trace: false,
            host,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "run_us",
                value: 2.5,
                unit: "us",
            }],
            rows: vec!["kernels.hash run_us=1".into()],
        }
        .write(dir)
        .expect("writes")
    }

    #[test]
    fn comparing_different_hosts_warns() {
        let base = crate::out_dir().join(format!("test-host-{}", std::process::id()));
        let (da, db) = (base.join("a"), base.join("b"));
        let here = Host::current();
        let a = write(&da, here.clone());
        let b = write(&db, here.clone());
        assert!(compare(&a, &b).expect("parses").is_empty());
        let other = Host {
            nproc: here.nproc + 1,
            ..here
        };
        let c = write(&db, other);
        let warnings = compare(&a, &c).expect("parses");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("host.nproc"));
        let _ = std::fs::remove_dir_all(base);
    }
}
