//! Workspace layering: `xtask-layers.toml` parsing and the inter-crate
//! dependency DAG check (run by `cargo xtask lint`).
//!
//! The reproduction depends on a strict crate layering — theory code
//! (`galois`, `graph`, `topology`) must stay free of simulator
//! dependencies so Theorem 4.2 artifacts are auditable in isolation.
//! The committed `xtask-layers.toml` assigns every workspace crate to a
//! named layer with a rank; the check parses every member `Cargo.toml`
//! and enforces:
//!
//! * a normal (or build) dependency may only point at a crate of
//!   **strictly lower** rank — no upward and no lateral edges;
//! * a layer may further restrict its reach with an explicit
//!   `deps = "layer, layer"` allow-list (e.g. `app` may only see
//!   `core` and `compat`, never `sim` directly);
//! * dev-dependencies may point at the same rank (the test suite uses
//!   the CLI) but never upward;
//! * **undeclared crates fail closed**, in both directions: a
//!   workspace crate missing from `[crates]` and a `[crates]` entry
//!   naming no workspace crate are each diagnostics.
//!
//! Like the rest of the analyzer this is registry-free: manifests are
//! read with a purpose-built line parser (inline dependency tables
//! only, which is all the workspace uses), not `cargo metadata`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Component, Path, PathBuf};

use crate::rules::{Violation, RULE_LAYERING};

/// File name of the committed layer declarations, at the repo root.
pub const LAYERS_FILE: &str = "xtask-layers.toml";

/// One declared layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Position in the stack; higher ranks may depend on lower ones.
    pub rank: u32,
    /// Optional explicit allow-list of layer names for normal
    /// dependencies; `None` means any strictly-lower layer.
    pub deps: Option<Vec<String>>,
}

/// The parsed `xtask-layers.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayersConfig {
    /// Layer name → spec.
    pub layers: BTreeMap<String, LayerSpec>,
    /// Crate name (directory short name) → layer name.
    pub crates: BTreeMap<String, String>,
}

/// Parses the layers file. Returns the config or a description of the
/// first malformed line.
pub fn parse_layers(text: &str) -> Result<LayersConfig, String> {
    let mut config = LayersConfig::default();
    let mut section = Section::None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = if let Some(name) = header.strip_prefix("layer.") {
                if config.layers.contains_key(name) {
                    return Err(format!("line {lineno}: duplicate layer `{name}`"));
                }
                config.layers.insert(
                    name.to_string(),
                    LayerSpec {
                        rank: u32::MAX,
                        deps: None,
                    },
                );
                Section::Layer(name.to_string())
            } else if header == "crates" {
                Section::Crates
            } else {
                return Err(format!(
                    "line {lineno}: expected [layer.<name>] or [crates], got [{header}]"
                ));
            };
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        match &section {
            Section::None => {
                return Err(format!("line {lineno}: key outside any section"));
            }
            Section::Layer(name) => {
                // The section open inserted the entry; a miss is
                // impossible but simply skipping keeps this panic-free.
                let Some(spec) = config.layers.get_mut(name) else {
                    continue;
                };
                match key {
                    "rank" => {
                        spec.rank = value
                            .parse()
                            .map_err(|_| format!("line {lineno}: rank is not an integer"))?;
                    }
                    "deps" => {
                        let list = unquote(value).ok_or_else(|| {
                            format!("line {lineno}: deps must be a quoted comma-separated string")
                        })?;
                        spec.deps = Some(
                            list.split(',')
                                .map(str::trim)
                                .filter(|s| !s.is_empty())
                                .map(str::to_string)
                                .collect(),
                        );
                    }
                    other => {
                        return Err(format!("line {lineno}: unknown layer key `{other}`"));
                    }
                }
            }
            Section::Crates => {
                let layer = unquote(value)
                    .ok_or_else(|| format!("line {lineno}: layer name must be quoted"))?;
                if config.crates.contains_key(key) {
                    return Err(format!("line {lineno}: duplicate crate `{key}`"));
                }
                config.crates.insert(key.to_string(), layer.to_string());
            }
        }
    }
    // Cross-validate: every layer has a rank, every crate a known layer,
    // allow-lists name known layers.
    for (name, spec) in &config.layers {
        if spec.rank == u32::MAX {
            return Err(format!("layer `{name}` has no rank"));
        }
        for dep in spec.deps.iter().flatten() {
            if !config.layers.contains_key(dep) {
                return Err(format!("layer `{name}` allows unknown layer `{dep}`"));
            }
        }
    }
    for (krate, layer) in &config.crates {
        if !config.layers.contains_key(layer) {
            return Err(format!(
                "crate `{krate}` assigned to unknown layer `{layer}`"
            ));
        }
    }
    Ok(config)
}

/// Reads and parses the committed layer declarations at `root`. It
/// fails closed: a missing or malformed file is itself a violation.
pub fn read_layers(root: &Path) -> Result<LayersConfig, (String, Violation)> {
    let message = match fs::read_to_string(root.join(LAYERS_FILE)) {
        Ok(text) => match parse_layers(&text) {
            Ok(config) => return Ok(config),
            Err(e) => format!("malformed layer declarations: {e}"),
        },
        Err(e) => format!(
            "cannot read the layer declarations: {e}; every workspace crate must be \
             assigned to a layer in {LAYERS_FILE}"
        ),
    };
    Err((LAYERS_FILE.to_string(), layering(1, message)))
}

enum Section {
    None,
    Layer(String),
    Crates,
}

fn unquote(value: &str) -> Option<&str> {
    value.strip_prefix('"')?.strip_suffix('"')
}

/// One dependency entry read out of a member manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    /// Dependency key as written (`rand`, `rfc-graph`, ...).
    pub name: String,
    /// 1-based manifest line of the entry, for diagnostics.
    pub line: usize,
    /// Whether it came from `[dev-dependencies]`.
    pub dev: bool,
    /// `path = "..."` value, when present.
    pub path: Option<String>,
    /// Whether the entry says `workspace = true`.
    pub workspace: bool,
}

/// Extracts every dependency entry from one manifest's
/// `[dependencies]` / `[dev-dependencies]` / `[build-dependencies]`
/// tables (inline entries, the only style the workspace uses).
pub fn manifest_deps(manifest: &str) -> Vec<DepEntry> {
    let mut out = Vec::new();
    let mut dep_section: Option<bool> = None; // Some(dev?)
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            dep_section = match header {
                "dependencies" | "build-dependencies" => Some(false),
                "dev-dependencies" => Some(true),
                _ => None,
            };
            continue;
        }
        let Some(dev) = dep_section else { continue };
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let name = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        let path = value.find("path").and_then(|at| {
            let rest = &value[at..];
            let open = rest.find('"')?;
            let rest = &rest[open + 1..];
            Some(rest[..rest.find('"')?].to_string())
        });
        let workspace = value
            .find("workspace")
            .is_some_and(|at| value[at..].replace(' ', "").starts_with("workspace=true"));
        out.push(DepEntry {
            name,
            line: idx + 1,
            dev,
            path,
            workspace,
        });
    }
    out
}

/// Extracts `name → path` from the root manifest's
/// `[workspace.dependencies]` table.
pub fn workspace_dep_paths(root_manifest: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut in_table = false;
    for raw in root_manifest.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_table = header == "workspace.dependencies";
            continue;
        }
        if !in_table {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        if let Some(at) = value.find("path") {
            let rest = &value[at..];
            if let Some(open) = rest.find('"') {
                let rest = &rest[open + 1..];
                if let Some(close) = rest.find('"') {
                    out.insert(
                        key.trim().trim_matches('"').to_string(),
                        rest[..close].to_string(),
                    );
                }
            }
        }
    }
    out
}

/// Normalizes `path` (resolving `.` and `..` lexically) so member
/// `path = "../graph"` entries and root `crates/graph` entries compare
/// equal without touching the filesystem.
pub fn normalize(path: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for comp in path.components() {
        match comp {
            Component::CurDir => {}
            Component::ParentDir => {
                if !out.pop() {
                    out.push("..");
                }
            }
            other => out.push(other),
        }
    }
    out
}

/// One workspace crate as seen by the layering check.
#[derive(Debug, Clone)]
pub struct LayerCrate {
    /// Short name (ratchet/layers key): directory name, `compat-*`, or
    /// `suite` for the root package.
    pub name: String,
    /// Crate directory, relative to the workspace root.
    pub dir: PathBuf,
    /// Parsed dependency entries of its manifest.
    pub deps: Vec<DepEntry>,
}

/// Runs the layering check: every crate declared, every dependency
/// edge pointing strictly downward (dev: non-upward), allow-lists
/// honored. Returns `(display path, violation)` pairs.
pub fn check(
    config: &LayersConfig,
    crates: &[LayerCrate],
    ws_paths: &BTreeMap<String, String>,
) -> Vec<(String, Violation)> {
    let mut violations = Vec::new();
    let by_dir: BTreeMap<PathBuf, &str> = crates
        .iter()
        .map(|c| (normalize(&c.dir), c.name.as_str()))
        .collect();
    let names: Vec<&str> = crates.iter().map(|c| c.name.as_str()).collect();

    // Fail closed in both directions.
    for krate in crates {
        if !config.crates.contains_key(&krate.name) {
            violations.push((
                manifest_display(&krate.dir),
                layering(
                    1,
                    format!(
                    "crate `{}` is not declared in {LAYERS_FILE}; every workspace crate must be \
                     assigned to a layer",
                    krate.name
                ),
                ),
            ));
        }
    }
    for declared in config.crates.keys() {
        if !names.contains(&declared.as_str()) {
            violations.push((
                LAYERS_FILE.to_string(),
                layering(
                    1,
                    format!(
                        "{LAYERS_FILE} declares crate `{declared}` which is not in the workspace; \
                     remove the stale entry"
                    ),
                ),
            ));
        }
    }

    for krate in crates {
        let Some(my_layer) = config.crates.get(&krate.name) else {
            continue; // already reported above
        };
        let my_spec = &config.layers[my_layer];
        for dep in &krate.deps {
            // Resolve the entry to a workspace crate (external registry
            // deps do not exist in this hermetic workspace, but skip
            // anything that is neither path nor workspace just in case).
            let dep_dir = if dep.workspace {
                ws_paths.get(&dep.name).map(PathBuf::from)
            } else {
                dep.path.as_ref().map(|p| normalize(&krate.dir.join(p)))
            };
            let Some(dep_dir) = dep_dir else { continue };
            let Some(&dep_name) = by_dir.get(&normalize(&dep_dir)) else {
                continue;
            };
            let Some(dep_layer) = config.crates.get(dep_name) else {
                continue; // undeclared dep crate already reported
            };
            let dep_rank = config.layers[dep_layer].rank;
            let kind = if dep.dev {
                "dev-dependency"
            } else {
                "dependency"
            };
            if dep.dev {
                if dep_rank > my_spec.rank {
                    violations.push((
                        manifest_display(&krate.dir),
                        layering(
                            dep.line,
                            format!(
                            "{kind} `{}` (crate `{dep_name}`, layer `{dep_layer}` rank {dep_rank}) \
                             points above layer `{my_layer}` (rank {}); the layer graph only \
                             points downward",
                            dep.name, my_spec.rank
                        ),
                        ),
                    ));
                }
                continue;
            }
            if dep_rank >= my_spec.rank {
                let direction = if dep_rank == my_spec.rank {
                    "laterally within"
                } else {
                    "above"
                };
                violations.push((
                    manifest_display(&krate.dir),
                    layering(
                        dep.line,
                        format!(
                        "{kind} `{}` (crate `{dep_name}`, layer `{dep_layer}` rank {dep_rank}) \
                         points {direction} layer `{my_layer}` (rank {}); the layer graph only \
                         points downward",
                        dep.name, my_spec.rank
                    ),
                    ),
                ));
            } else if let Some(allowed) = &my_spec.deps {
                if !allowed.iter().any(|l| l == dep_layer) {
                    violations.push((
                        manifest_display(&krate.dir),
                        layering(
                            dep.line,
                            format!(
                                "{kind} `{}` (crate `{dep_name}`, layer `{dep_layer}`) skips the \
                             layering contract: layer `{my_layer}` may only depend on [{}]",
                                dep.name,
                                allowed.join(", ")
                            ),
                        ),
                    ));
                }
            }
        }
    }
    violations
}

fn layering(line: usize, message: String) -> Violation {
    Violation {
        rule: RULE_LAYERING.to_string(),
        line,
        message,
    }
}

fn manifest_display(dir: &Path) -> String {
    let p = dir.join("Cargo.toml");
    let s = p.display().to_string();
    if s.starts_with("Cargo.toml") || dir.as_os_str().is_empty() {
        "Cargo.toml".to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
[layer.compat]
rank = 0

[layer.graph]
rank = 20
deps = \"compat\"

[layer.sim]
rank = 50

[crates]
compat-rand = \"compat\"
graph = \"graph\"
sim = \"sim\"
";

    fn crate_with(name: &str, dir: &str, deps: Vec<DepEntry>) -> LayerCrate {
        LayerCrate {
            name: name.to_string(),
            dir: PathBuf::from(dir),
            deps,
        }
    }

    fn dep(name: &str, dev: bool, path: Option<&str>, workspace: bool) -> DepEntry {
        DepEntry {
            name: name.to_string(),
            line: 7,
            dev,
            path: path.map(str::to_string),
            workspace,
        }
    }

    #[test]
    fn parse_accepts_the_canonical_format() {
        let config = parse_layers(GOOD).expect("canonical layers file must parse");
        assert_eq!(config.layers["graph"].rank, 20);
        assert_eq!(
            config.layers["graph"].deps,
            Some(vec!["compat".to_string()])
        );
        assert_eq!(config.crates["sim"], "sim");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_layers("[wrong]\n").is_err());
        assert!(parse_layers("rank = 3\n").is_err(), "key outside section");
        assert!(parse_layers("[layer.a]\nrank = x\n").is_err());
        assert!(parse_layers("[layer.a]\n").is_err(), "layer without rank");
        assert!(parse_layers("[layer.a]\nrank = 1\ndeps = \"ghost\"\n").is_err());
        assert!(parse_layers("[layer.a]\nrank = 1\n[crates]\nx = \"ghost\"\n").is_err());
        assert!(parse_layers("[layer.a]\nrank = 1\n[layer.a]\nrank = 2\n").is_err());
    }

    #[test]
    fn manifest_deps_reads_inline_tables() {
        let manifest = "\
[package]
name = \"rfc-sim\"

[dependencies]
rand = { workspace = true }
rfc-graph = { path = \"../graph\" }

[dev-dependencies]
proptest = { workspace = true }

[lib]
path = \"src/lib.rs\"
";
        let deps = manifest_deps(manifest);
        assert_eq!(
            deps.len(),
            3,
            "the [lib] path key must not be read as a dependency"
        );
        assert!(deps[0].workspace && !deps[0].dev);
        assert_eq!(deps[1].path.as_deref(), Some("../graph"));
        assert!(deps[2].dev);
    }

    #[test]
    fn workspace_table_maps_names_to_paths() {
        let root = "[workspace.dependencies]\nrand = { path = \"crates/compat/rand\" }\n\n[package]\nname = \"x\"\n";
        let map = workspace_dep_paths(root);
        assert_eq!(map["rand"], "crates/compat/rand");
    }

    #[test]
    fn upward_edge_fails() {
        let config = parse_layers(GOOD).expect("layers must parse");
        let ws = BTreeMap::new();
        let crates = vec![
            crate_with(
                "graph",
                "crates/graph",
                vec![dep("rfc-sim", false, Some("../sim"), false)],
            ),
            crate_with("sim", "crates/sim", vec![]),
            crate_with("compat-rand", "crates/compat/rand", vec![]),
        ];
        let violations = check(&config, &crates, &ws);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].0, "crates/graph/Cargo.toml");
        assert_eq!(violations[0].1.line, 7);
        assert!(violations[0].1.message.contains("dependency `rfc-sim`"));
        assert!(violations[0].1.message.contains("above layer `graph`"));
    }

    #[test]
    fn allow_list_blocks_layer_skipping() {
        // graph may only see compat; give it a lateral-free but
        // unlisted dep by adding a lower layer not in its list.
        let text = format!("{GOOD}\n[layer.base]\nrank = 10\n");
        let mut config = parse_layers(&text).expect("layers must parse");
        config.crates.insert("util".to_string(), "base".to_string());
        let crates = vec![
            crate_with(
                "graph",
                "crates/graph",
                vec![dep("rfc-util", false, Some("../util"), false)],
            ),
            crate_with("util", "crates/util", vec![]),
            crate_with("sim", "crates/sim", vec![]),
            crate_with("compat-rand", "crates/compat/rand", vec![]),
        ];
        let violations = check(&config, &crates, &BTreeMap::new());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0]
            .1
            .message
            .contains("skips the layering contract"));
    }

    #[test]
    fn dev_dependency_may_be_lateral_but_not_upward() {
        let config = parse_layers(GOOD).expect("layers must parse");
        let crates = vec![
            crate_with(
                "graph",
                "crates/graph",
                vec![dep("rfc-graph-tests", true, Some("."), false)],
            ),
            crate_with("sim", "crates/sim", vec![]),
            crate_with("compat-rand", "crates/compat/rand", vec![]),
        ];
        assert!(
            check(&config, &crates, &BTreeMap::new()).is_empty(),
            "lateral dev-dep is fine"
        );
        let crates = vec![
            crate_with(
                "graph",
                "crates/graph",
                vec![dep("rfc-sim", true, Some("../sim"), false)],
            ),
            crate_with("sim", "crates/sim", vec![]),
            crate_with("compat-rand", "crates/compat/rand", vec![]),
        ];
        let violations = check(&config, &crates, &BTreeMap::new());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].1.message.contains("dev-dependency `rfc-sim`"));
    }

    #[test]
    fn undeclared_crates_fail_closed_both_ways() {
        let config = parse_layers(GOOD).expect("layers must parse");
        // `rogue` exists in the workspace but not in [crates].
        let crates = vec![
            crate_with("rogue", "crates/rogue", vec![]),
            crate_with("graph", "crates/graph", vec![]),
            crate_with("compat-rand", "crates/compat/rand", vec![]),
        ];
        let violations = check(&config, &crates, &BTreeMap::new());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations
            .iter()
            .any(|(p, v)| p == "crates/rogue/Cargo.toml" && v.message.contains("not declared")));
        // `sim` is declared but missing from the workspace.
        assert!(violations
            .iter()
            .any(|(p, v)| p == LAYERS_FILE && v.message.contains("crate `sim`")));
    }

    #[test]
    fn workspace_deps_resolve_through_the_root_table() {
        let config = parse_layers(GOOD).expect("layers must parse");
        let mut ws = BTreeMap::new();
        ws.insert("rfc-sim".to_string(), "crates/sim".to_string());
        let crates = vec![
            crate_with(
                "graph",
                "crates/graph",
                vec![dep("rfc-sim", false, None, true)],
            ),
            crate_with("sim", "crates/sim", vec![]),
            crate_with("compat-rand", "crates/compat/rand", vec![]),
        ];
        let violations = check(&config, &crates, &ws);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].1.message.contains("rfc-sim"));
    }
}
