//! Committed golden outputs.
//!
//! One text file per (size, seed): `golden/full-2017.txt`,
//! `golden/smoke-7.txt`, … Each line is `<workload> <key> <value>`;
//! values are exact (floats in shortest round-trip form, report hashes
//! in hex), so any change to what the simulator computes shows up as a
//! mismatch. Lines starting with `#` are comments.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Named outputs of one job, in a fixed order.
pub type Outputs = Vec<(String, String)>;

/// The golden file for a size and seed under `dir`.
pub fn path(dir: &Path, smoke: bool, seed: u64) -> PathBuf {
    let size = if smoke { "smoke" } else { "full" };
    dir.join(format!("{size}-{seed}.txt"))
}

/// Every workload's outputs in one golden file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GoldenFile {
    workloads: BTreeMap<String, Outputs>,
}

impl GoldenFile {
    /// Reads `path`; `Ok(None)` when it does not exist.
    ///
    /// # Errors
    ///
    /// Returns a description of an unreadable file or a malformed line.
    pub fn load(path: &Path) -> Result<Option<GoldenFile>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut file = GoldenFile::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(w), Some(k), Some(v)) => file
                    .workloads
                    .entry(w.to_string())
                    .or_default()
                    .push((k.to_string(), v.to_string())),
                _ => {
                    return Err(format!(
                        "{}:{}: expected `<workload> <key> <value>`",
                        path.display(),
                        n + 1
                    ))
                }
            }
        }
        Ok(Some(file))
    }

    /// The outputs recorded for `workload`.
    pub fn outputs(&self, workload: &str) -> Option<&Outputs> {
        self.workloads.get(workload)
    }

    /// Replaces `workload`'s outputs and returns the changed lines as a
    /// diff (`- old` / `+ new`).
    pub fn replace(&mut self, workload: &str, outputs: &Outputs) -> Vec<String> {
        let old = self.workloads.insert(workload.to_string(), outputs.clone());
        let old = old.unwrap_or_default();
        let mut diff = Vec::new();
        for (k, v) in &old {
            if !outputs.contains(&(k.clone(), v.clone())) {
                diff.push(format!("- {workload} {k} {v}"));
            }
        }
        for (k, v) in outputs {
            if !old.contains(&(k.clone(), v.clone())) {
                diff.push(format!("+ {workload} {k} {v}"));
            }
        }
        diff
    }

    /// Writes the file back.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as text.
    pub fn save(&self, path: &Path, seed: u64) -> Result<(), String> {
        let mut text =
            format!("# rfcbench golden outputs for seed {seed}; regenerate with --bless.\n");
        for (workload, outputs) in &self.workloads {
            for (k, v) in outputs {
                text.push_str(&format!("{workload} {k} {v}\n"));
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The keys whose values differ between `want` and `got`, including
/// keys present on only one side, in sorted order.
pub fn mismatches(want: &Outputs, got: &Outputs) -> Vec<String> {
    let want: BTreeMap<&str, &str> = want.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let got: BTreeMap<&str, &str> = got.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let mut keys: Vec<&str> = want.keys().chain(got.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .filter(|k| want.get(k) != got.get(k))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs(pairs: &[(&str, &str)]) -> Outputs {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn replace_reports_the_diff_and_mismatches_name_keys() {
        let mut file = GoldenFile::default();
        let a = outputs(&[("delivered_packets", "10"), ("accepted_load", "0.5")]);
        assert_eq!(file.replace("w", &a).len(), 2);
        assert_eq!(file.outputs("w"), Some(&a));
        let b = outputs(&[("delivered_packets", "11"), ("accepted_load", "0.5")]);
        assert_eq!(
            file.replace("w", &b),
            vec!["- w delivered_packets 10", "+ w delivered_packets 11"]
        );
        assert_eq!(mismatches(&a, &b), vec!["delivered_packets"]);
        assert_eq!(mismatches(&a, &a[..1].to_vec()), vec!["accepted_load"]);
        assert!(mismatches(&a, &a).is_empty());
    }
}
