//! Cross-crate nondeterminism taint propagation.
//!
//! Pass 1 of the workspace analyzer. Builds an approximate call graph
//! over every workspace crate from the per-file symbol tables
//! ([`crate::symbols`]), then walks it forward from the event-handler /
//! datapath entry points and reports every entry that can reach a
//! *taint source*:
//!
//! * any surviving lexical finding (wall-clock, os-entropy,
//!   hash-collections, thread-spawn, float-time, rand-raw,
//!   wire-truncation) — in **any** crate, so a handler calling a helper
//!   that calls `SystemTime::now` two crates away no longer sails
//!   through;
//! * a `.unwrap()`/`.expect()`/`panic!`-family site in any function
//!   reachable from a NIC handler (`on_packet`, `on_timer`,
//!   `ring_doorbell`, `finish_local`, `deliver_cqe`) — the transitive
//!   form of the lexical `panic-in-handler` rule.
//!
//! Chains are suppressible only at the source, with the same
//! `// hl-lint: allow(<rule>)` hatch the lexical rules use.
//!
//! Call resolution is name-based and *approximate*: edges are
//! restricted to the caller's crate plus its direct `[dependencies]`
//! (dev-dependencies are excluded — test-only helpers cannot taint the
//! datapath), `Type::assoc` paths resolve through impl blocks, and a
//! deny-list of ubiquitous method names (`len`, `push`, `clone`, ...)
//! avoids drowning the graph in std-collection false edges. The known
//! blind spots (trait-object dispatch, macro-generated calls) are
//! documented in DESIGN.md §14.

use crate::lexer::Allow;
use crate::rules::{allow_ranges, check_source, Finding};
use crate::symbols::{parse_file, FnDef};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

/// Event-handler / datapath entry points for determinism taint: the NIC
/// state machine, the cluster event dispatcher, the process event hook
/// and the NIC-output router.
pub const ENTRY_FNS: &[&str] = &[
    "on_packet",
    "on_timer",
    "ring_doorbell",
    "finish_local",
    "deliver_cqe",
    "on_event",
    "run_event",
    "route_nic",
];

/// Entry points for the *transitive* panic pass — the NIC handlers the
/// lexical `panic-in-handler` rule already guards directly.
pub const PANIC_ENTRY_FNS: &[&str] = &[
    "on_packet",
    "on_timer",
    "ring_doorbell",
    "finish_local",
    "deliver_cqe",
];

/// Method names too ubiquitous to resolve by name: nearly every use is a
/// std-library call, so an edge to a same-named workspace fn would be
/// noise. `Type::name(..)` path calls still resolve precisely.
const METHOD_DENY: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clear",
    "extend",
    "append",
    "take",
    "drain",
    "entry",
    "keys",
    "values",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "min",
    "max",
    "to_string",
    "as_str",
    "as_ref",
    "as_mut",
    "as_bytes",
    "into",
    "from",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "find",
    "filter",
    "fold",
    "sum",
    "count",
    "collect",
    "sort",
    "sort_by",
    "sort_by_key",
    "retain",
    "last",
    "first",
    "front",
    "back",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "to_vec",
    "split_off",
    "chain",
    "zip",
    "rev",
    "enumerate",
    "any",
    "all",
    "position",
    "join",
    "trim",
    "starts_with",
    "ends_with",
    "splice",
    "copy_from_slice",
    "fill",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "checked_sub",
    "checked_add",
];

/// Cap on BFS chain length; deeper chains are almost certainly
/// resolution noise.
const MAX_DEPTH: usize = 16;

/// One workspace crate.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Cargo package name (directory name under `crates/`).
    pub name: String,
    /// Crate directory (contains `Cargo.toml` and `src/`).
    pub dir: PathBuf,
    /// Direct `[dependencies]` entries (workspace members only matter).
    pub deps: Vec<String>,
    /// Is this one of the sim-core crates the determinism rules gate?
    pub sim: bool,
}

/// Parse the `[dependencies]` section of a `Cargo.toml` (line-oriented;
/// good enough for this workspace's simple manifests).
fn manifest_deps(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if !name.is_empty() {
            deps.push(name);
        }
    }
    deps
}

/// Discover every crate under `<root>/crates/`, sorted by name.
pub fn discover_crates(root: &Path, sim_crates: &[&str]) -> std::io::Result<Vec<CrateInfo>> {
    let mut out = Vec::new();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))?;
        out.push(CrateInfo {
            sim: sim_crates.contains(&name.as_str()),
            deps: manifest_deps(&manifest),
            name,
            dir,
        });
    }
    Ok(out)
}

/// The whole-workspace model: symbol tables, lexical findings attributed
/// to their containing functions, and the crate-dependency view used to
/// constrain call resolution.
pub struct Model {
    /// Every parsed function in the workspace.
    pub fns: Vec<FnDef>,
    /// Surviving lexical findings in **sim** crates (reported directly).
    pub direct: Vec<Finding>,
    /// (fn index, finding) taint sources — surviving lexical findings in
    /// any crate, attributed to the innermost containing fn.
    pub sources: Vec<(usize, Finding)>,
    /// Unsuppressed panic sites per fn index (line numbers).
    pub panic_sites: BTreeMap<usize, Vec<u32>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_type: BTreeMap<(String, String), Vec<usize>>,
    /// crate → {itself + direct deps}.
    visible: BTreeMap<String, BTreeSet<String>>,
}

/// Every `.rs` file under `dir`, recursively, in sorted path order.
pub(crate) fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Parse every crate's `src/` tree into one model. `root` is only used
/// to shorten file labels.
pub fn build_model(root: &Path, crates: &[CrateInfo]) -> std::io::Result<Model> {
    let mut m = Model {
        fns: Vec::new(),
        direct: Vec::new(),
        sources: Vec::new(),
        panic_sites: BTreeMap::new(),
        by_name: BTreeMap::new(),
        by_type: BTreeMap::new(),
        visible: BTreeMap::new(),
    };
    for c in crates {
        let mut vis: BTreeSet<String> = c.deps.iter().cloned().collect();
        vis.insert(c.name.clone());
        m.visible.insert(c.name.clone(), vis);

        let src = c.dir.join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for f in files {
            let text = std::fs::read_to_string(&f)?;
            let label = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .into_owned();
            let syms = parse_file(&c.name, &label, &text);
            let findings = check_source(&label, &text);
            let fn_base = m.fns.len();

            // Attribute findings to the innermost containing fn.
            for finding in findings {
                if finding.rule == "libm-in-datapath" {
                    // A host-cost rule scoped to the per-event crates:
                    // reported where it stands, never a taint source.
                    if crate::DATAPATH_CRATES.contains(&c.name.as_str()) {
                        m.direct.push(finding);
                    }
                    continue;
                }
                if finding.rule == "dropped-refusal" {
                    // About its own call site, not about determinism:
                    // reported where it stands, never a taint source.
                    if c.sim {
                        m.direct.push(finding);
                    }
                    continue;
                }
                let holder = innermost_fn(&syms.fns, finding.line).map(|i| fn_base + i);
                if c.sim {
                    m.direct.push(finding.clone());
                }
                if let Some(idx) = holder {
                    m.sources.push((idx, finding));
                }
            }

            // Panic sites survive unless allow(panic-in-handler) covers
            // them (suppression at the source, same hatch as the rule).
            let panic_allowed = panic_allow_lines(&text, &syms.allows);
            for (i, f) in syms.fns.iter().enumerate() {
                let kept: Vec<u32> = f
                    .panics
                    .iter()
                    .copied()
                    .filter(|l| !panic_allowed.iter().any(|(a, b)| l >= a && l <= b))
                    .collect();
                if !kept.is_empty() {
                    m.panic_sites.insert(fn_base + i, kept);
                }
            }

            for (i, f) in syms.fns.into_iter().enumerate() {
                let idx = fn_base + i;
                m.by_name.entry(f.name.clone()).or_default().push(idx);
                if let Some(ty) = &f.impl_type {
                    m.by_type
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(idx);
                }
                debug_assert_eq!(idx, m.fns.len());
                m.fns.push(f);
            }
        }
    }
    Ok(m)
}

/// `allow(panic-in-handler)` spans in a file.
fn panic_allow_lines(src: &str, allows: &[Allow]) -> Vec<(u32, u32)> {
    let (toks, _) = crate::lexer::lex(src);
    allow_ranges(&toks, allows)
        .into_iter()
        .filter(|r| r.rule == "panic-in-handler")
        .map(|r| (r.start, r.end))
        .collect()
}

/// Innermost fn (by narrowest line span) containing `line`.
fn innermost_fn(fns: &[FnDef], line: u32) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.start_line <= line && line <= f.end_line)
        .min_by_key(|(_, f)| f.end_line - f.start_line)
        .map(|(i, _)| i)
}

impl Model {
    /// Resolve one call site from `caller` to candidate fn indices.
    fn resolve(&self, caller: usize, call: &crate::symbols::CallSite) -> Vec<usize> {
        let from = &self.fns[caller];
        let empty = BTreeSet::new();
        let visible = self.visible.get(&from.krate).unwrap_or(&empty);
        let vis = |idx: &usize| visible.contains(&self.fns[*idx].krate);

        if call.method {
            if METHOD_DENY.contains(&call.callee.as_str()) {
                return Vec::new();
            }
            return self
                .by_name
                .get(&call.callee)
                .map(|v| {
                    v.iter()
                        .filter(|i| self.fns[**i].impl_type.is_some())
                        .filter(|i| vis(i))
                        .copied()
                        .collect()
                })
                .unwrap_or_default();
        }
        match call.qualifier.as_deref() {
            Some("Self") => {
                let Some(ty) = &from.impl_type else {
                    return Vec::new();
                };
                self.by_type
                    .get(&(ty.clone(), call.callee.clone()))
                    .cloned()
                    .unwrap_or_default()
            }
            Some(q) => {
                if let Some(v) = self.by_type.get(&(q.to_string(), call.callee.clone())) {
                    return v.iter().filter(|i| vis(i)).copied().collect();
                }
                let as_crate = q.replace('_', "-");
                if self.visible.contains_key(&as_crate) {
                    return self
                        .by_name
                        .get(&call.callee)
                        .map(|v| {
                            v.iter()
                                .filter(|i| self.fns[**i].krate == as_crate)
                                .copied()
                                .collect()
                        })
                        .unwrap_or_default();
                }
                let same_crate_only = q == "crate" || q == "self";
                self.by_name
                    .get(&call.callee)
                    .map(|v| {
                        v.iter()
                            .filter(|i| self.fns[**i].impl_type.is_none())
                            .filter(|i| {
                                if same_crate_only {
                                    self.fns[**i].krate == from.krate
                                } else {
                                    vis(i)
                                }
                            })
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default()
            }
            None => self
                .by_name
                .get(&call.callee)
                .map(|v| {
                    v.iter()
                        .filter(|i| self.fns[**i].impl_type.is_none())
                        .filter(|i| vis(i))
                        .copied()
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    /// Forward adjacency for every fn.
    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.fns.len()];
        for (i, f) in self.fns.iter().enumerate() {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for c in &f.calls {
                out.extend(self.resolve(i, c));
            }
            out.remove(&i);
            adj[i] = out.into_iter().collect();
        }
        adj
    }
}

/// Render a call chain `entry → ... → sink` as `Qual → Qual → Qual`.
fn chain_string(
    model: &Model,
    parents: &BTreeMap<usize, usize>,
    entry: usize,
    sink: usize,
) -> String {
    let mut path = vec![sink];
    let mut cur = sink;
    while cur != entry {
        cur = parents[&cur];
        path.push(cur);
    }
    path.reverse();
    path.iter()
        .map(|i| model.fns[*i].qual.as_str())
        .collect::<Vec<_>>()
        .join(" → ")
}

/// Run the taint pass: chain findings for every entry point that reaches
/// a taint source, plus the transitive panic-in-handler pass.
pub fn taint_findings(model: &Model, sim_entry_only: bool) -> Vec<Finding> {
    let adj = model.adjacency();
    // fn idx → its source findings.
    let mut source_map: BTreeMap<usize, Vec<&Finding>> = BTreeMap::new();
    for (idx, f) in &model.sources {
        source_map.entry(*idx).or_default().push(f);
    }

    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, String, u32)> = BTreeSet::new();

    let sim_crate = |idx: usize| crate::SIM_CRATES.contains(&model.fns[idx].krate.as_str());

    for entry in 0..model.fns.len() {
        let name = model.fns[entry].name.as_str();
        let is_entry = ENTRY_FNS.contains(&name);
        let is_panic_entry = PANIC_ENTRY_FNS.contains(&name);
        if !is_entry && !is_panic_entry {
            continue;
        }
        if sim_entry_only && !sim_crate(entry) {
            continue;
        }
        // BFS with parent pointers for chain reconstruction.
        let mut parents: BTreeMap<usize, usize> = BTreeMap::new();
        let mut depth: BTreeMap<usize, usize> = BTreeMap::new();
        let mut q = VecDeque::new();
        depth.insert(entry, 0);
        q.push_back(entry);
        while let Some(cur) = q.pop_front() {
            let d = depth[&cur];
            // Report sinks (skip the 0-hop case: the lexical rules
            // already cover findings inside the entry fn itself).
            if cur != entry {
                if is_entry {
                    if let Some(findings) = source_map.get(&cur) {
                        for f in findings {
                            if seen.insert((entry, f.file.clone(), f.line)) {
                                let e = &model.fns[entry];
                                out.push(Finding {
                                    rule: "taint",
                                    file: e.file.clone(),
                                    line: e.line,
                                    message: format!(
                                        "entry `{}` reaches a {} source at {}:{} via {} ({})",
                                        e.qual,
                                        f.rule,
                                        f.file,
                                        f.line,
                                        chain_string(model, &parents, entry, cur),
                                        f.message
                                    ),
                                });
                            }
                        }
                    }
                }
                if is_panic_entry {
                    if let Some(lines) = model.panic_sites.get(&cur) {
                        for l in lines {
                            let s = &model.fns[cur];
                            if seen.insert((entry, format!("panic:{}", s.file), *l)) {
                                let e = &model.fns[entry];
                                out.push(Finding {
                                    rule: "taint-panic",
                                    file: e.file.clone(),
                                    line: e.line,
                                    message: format!(
                                        "NIC handler `{}` can panic at {}:{} via {}; surface the fault as an error CQE or allow(panic-in-handler) at the site with a safety argument",
                                        e.qual,
                                        s.file,
                                        l,
                                        chain_string(model, &parents, entry, cur),
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            if d >= MAX_DEPTH {
                continue;
            }
            for &nxt in &adj[cur] {
                if let std::collections::btree_map::Entry::Vacant(e) = depth.entry(nxt) {
                    e.insert(d + 1);
                    parents.insert(nxt, cur);
                    q.push_back(nxt);
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    out
}
