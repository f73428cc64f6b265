//! Wire-format layout verifier (pass 2).
//!
//! HyperLoop's offload *is* a self-modifying descriptor chain: the
//! client's metadata SEND is scattered straight into the byte layout of
//! pre-posted WQEs, so the descriptor offsets duplicated across
//! hl-rnic (`wqe.rs`), hyperloop (`metadata.rs`, `naive.rs`) and the
//! patch tables of the slot programs in `program.rs` are load-bearing
//! wire format, with nothing but convention keeping them overlap-free. This pass parses
//! the actual `const` items out of those files, reconstructs each
//! descriptor's field map against a built-in width schema, and fails
//! on:
//!
//! * **overlap** — two fields of one descriptor occupying the same
//!   bytes (`layout-overlap`);
//! * **bounds** — a field extending past the declared descriptor size
//!   (`layout-bounds`);
//! * **mismatch** — the same logical field bound inconsistently across
//!   crates: width drift between declarations, a scatter entry whose
//!   length disagrees with its source or destination field, or a
//!   scatter binding two different logical fields together
//!   (`layout-mismatch`);
//! * **missing** — a schema'd constant that no longer parses out of the
//!   source, or a patch whose width, source or destination the pass
//!   cannot resolve, so renames and new table rows cannot silently drop
//!   coverage (`layout-missing`);
//! * **usage drift** — a `d[K as usize..K as usize + N]` access whose
//!   `N` disagrees with the field's declared width (`layout-mismatch`).
//!
//! Descriptors that *intentionally* alias bytes (the gWRITE and gCAS
//! interpretations of the 48-byte metadata record) are modelled as
//! separate descriptors over the same extent, so the overlap check
//! applies within an interpretation, never across them.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::Finding;
use crate::symbols::{parse_file, parse_int, ConstDef};
use std::collections::BTreeMap;
use std::path::Path;

/// How a descriptor's size is declared.
#[derive(Debug, Clone)]
pub enum SizeRef {
    /// A `const` in the same file (e.g. `WQE_SIZE`, `REC`).
    Const(String),
    /// A literal size.
    Lit(u64),
}

/// One field of a descriptor.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    /// Const name holding the offset (e.g. `OP`, `D_OP`, `LEN`).
    pub konst: String,
    /// Enclosing module of the const, if any (e.g. `field_offset`).
    pub module: Option<String>,
    /// Field width in bytes.
    pub width: u64,
    /// Cross-crate logical identity (e.g. `op-id`); fields sharing a
    /// logical name must agree on width everywhere, and scatter entries
    /// must only bind like to like.
    pub logical: Option<String>,
    /// Offset declared not by a const but fixed by protocol (e.g. the
    /// metadata seq word at 0). Checked against `parse` when `konst`
    /// is empty.
    pub fixed_offset: Option<u64>,
}

impl FieldSpec {
    /// Shorthand constructor.
    pub fn new(module: Option<&str>, konst: &str, width: u64, logical: Option<&str>) -> Self {
        FieldSpec {
            konst: konst.to_string(),
            module: module.map(str::to_string),
            width,
            logical: logical.map(str::to_string),
            fixed_offset: None,
        }
    }
}

/// One descriptor: a named byte layout declared in one file.
#[derive(Debug, Clone)]
pub struct DescSpec {
    /// Descriptor name used in findings (e.g. `wqe`, `naive-desc`).
    pub name: String,
    /// File holding the constants, relative to the workspace root.
    pub file: String,
    /// Declared size.
    pub size: SizeRef,
    /// Fields.
    pub fields: Vec<FieldSpec>,
    /// Check `K as usize .. K as usize + N` accesses in the same file
    /// against declared widths.
    pub check_usage_widths: bool,
}

/// A scatter-table cross-check: `pat(<src const expr>, <len>,
/// <dst_mod>::<CONST>)` call sites in `file` bind source-descriptor
/// fields to destination-descriptor fields. Every call site must
/// resolve on all three arguments.
#[derive(Debug, Clone)]
pub struct ScatterSpec {
    /// File containing the scatter builder.
    pub file: String,
    /// Name of the helper whose calls are parsed (e.g. `pat`).
    pub callee: String,
    /// Descriptors the source offsets may come from.
    pub src_descs: Vec<String>,
    /// Descriptor the destination offsets belong to.
    pub dst_desc: String,
    /// Module name qualifying destination consts (e.g. `field_offset`).
    pub dst_module: String,
}

/// The full layout schema.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// Descriptors to verify.
    pub descs: Vec<DescSpec>,
    /// Scatter cross-checks.
    pub scatters: Vec<ScatterSpec>,
}

/// The built-in schema for this workspace's wire formats.
pub fn builtin_schema() -> Schema {
    let f = FieldSpec::new;
    Schema {
        descs: vec![
            DescSpec {
                name: "wqe".into(),
                file: "crates/hl-rnic/src/wqe.rs".into(),
                size: SizeRef::Const("WQE_SIZE".into()),
                fields: vec![
                    f(Some("field_offset"), "OPCODE", 1, Some("opcode")),
                    f(Some("field_offset"), "FLAGS", 1, Some("flags")),
                    f(Some("field_offset"), "LEN", 4, None),
                    f(Some("field_offset"), "LADDR", 8, None),
                    f(Some("field_offset"), "RADDR", 8, None),
                    f(Some("field_offset"), "CMP", 8, Some("cas-cmp")),
                    f(Some("field_offset"), "SWP", 8, Some("cas-swp")),
                    f(Some("field_offset"), "IMM", 4, Some("seq")),
                    f(Some("field_offset"), "OP", 4, Some("op-id")),
                ],
                check_usage_widths: false,
            },
            DescSpec {
                name: "meta-header".into(),
                file: "crates/hyperloop/src/metadata.rs".into(),
                size: SizeRef::Const("HDR".into()),
                fields: vec![
                    FieldSpec {
                        konst: String::new(),
                        module: None,
                        width: 4,
                        logical: Some("seq".into()),
                        fixed_offset: Some(0),
                    },
                    f(None, "OP_OFF", 4, Some("op-id")),
                ],
                check_usage_widths: true,
            },
            DescSpec {
                name: "meta-wrec".into(),
                file: "crates/hyperloop/src/metadata.rs".into(),
                size: SizeRef::Const("REC".into()),
                fields: vec![
                    f(Some("wrec"), "LEN", 4, None),
                    f(Some("wrec"), "SRC", 8, None),
                    f(Some("wrec"), "DST", 8, None),
                    f(Some("wrec"), "FOP", 1, Some("opcode")),
                    f(Some("wrec"), "FADDR", 8, None),
                    f(Some("wrec"), "FLEN", 4, None),
                    f(Some("mrec"), "ACK_ADDR", 8, None),
                    f(Some("mrec"), "ACK_RKEY", 4, None),
                ],
                check_usage_widths: true,
            },
            DescSpec {
                name: "meta-crec".into(),
                file: "crates/hyperloop/src/metadata.rs".into(),
                size: SizeRef::Const("REC".into()),
                fields: vec![
                    f(Some("crec"), "COP", 1, Some("opcode")),
                    f(Some("crec"), "TARGET", 8, None),
                    f(Some("crec"), "CMP", 8, Some("cas-cmp")),
                    f(Some("crec"), "SWP", 8, Some("cas-swp")),
                    f(Some("crec"), "RESULT", 8, None),
                ],
                check_usage_widths: true,
            },
            DescSpec {
                name: "meta-select".into(),
                file: "crates/hyperloop/src/metadata.rs".into(),
                size: SizeRef::Const("ENTRY".into()),
                fields: vec![f(Some("select"), "OP", 1, Some("opcode"))],
                check_usage_widths: false,
            },
            DescSpec {
                name: "naive-desc".into(),
                file: "crates/hyperloop/src/naive.rs".into(),
                // The fixed header: the per-member results array starts
                // at D_RESULTS and is bounds-checked by `desc_len`.
                size: SizeRef::Const("D_RESULTS".into()),
                fields: vec![
                    f(None, "D_PRIM", 1, None),
                    f(None, "D_FLUSH", 1, Some("opcode")),
                    f(None, "D_SEQ", 4, Some("seq")),
                    f(None, "D_OFFSET", 8, None),
                    f(None, "D_AUX", 8, None),
                    f(None, "D_SWP", 8, Some("cas-swp")),
                    f(None, "D_LEN", 4, None),
                    f(None, "D_EXEC", 4, None),
                    f(None, "D_OP", 4, Some("op-id")),
                ],
                check_usage_widths: true,
            },
        ],
        // Every topology's slot program — chain, fan-out, multi-client —
        // is a table in this one file, built by this one callee.
        scatters: vec![ScatterSpec {
            file: "crates/hyperloop/src/program.rs".into(),
            callee: "pat".into(),
            src_descs: vec![
                "meta-header".into(),
                "meta-wrec".into(),
                "meta-crec".into(),
                "meta-select".into(),
            ],
            dst_desc: "wqe".into(),
            dst_module: "field_offset".into(),
        }],
    }
}

/// A resolved field: spec plus the offset parsed from source.
#[derive(Debug, Clone)]
struct ResolvedField {
    spec: FieldSpec,
    offset: u64,
    line: u32,
}

/// A fully resolved descriptor.
struct ResolvedDesc {
    name: String,
    file: String,
    size: u64,
    fields: Vec<ResolvedField>,
}

fn mkfinding(file: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line,
        message,
    }
}

fn lookup<'a>(consts: &'a [ConstDef], module: &Option<String>, name: &str) -> Option<&'a ConstDef> {
    consts
        .iter()
        .find(|c| c.name == name && c.module == *module)
        .or_else(|| {
            // Fall back to a module-less match so a const hoisted out of
            // its mod still resolves (the overlap check keeps honesty).
            consts.iter().find(|c| c.name == name)
        })
}

fn resolve_desc(
    desc: &DescSpec,
    consts: &[ConstDef],
    out: &mut Vec<Finding>,
) -> Option<ResolvedDesc> {
    let size = match &desc.size {
        SizeRef::Lit(n) => *n,
        SizeRef::Const(name) => match lookup(consts, &None, name).and_then(|c| c.value) {
            Some(v) => v,
            None => {
                out.push(mkfinding(
                    &desc.file,
                    1,
                    "layout-missing",
                    format!(
                        "descriptor `{}`: size const `{}` not found as an integer literal in {}",
                        desc.name, name, desc.file
                    ),
                ));
                return None;
            }
        },
    };
    let mut fields = Vec::new();
    for fs in &desc.fields {
        if fs.konst.is_empty() {
            fields.push(ResolvedField {
                spec: fs.clone(),
                offset: fs.fixed_offset.unwrap_or(0),
                line: 1,
            });
            continue;
        }
        match lookup(consts, &fs.module, &fs.konst) {
            Some(c) => match c.value {
                Some(v) => fields.push(ResolvedField {
                    spec: fs.clone(),
                    offset: v,
                    line: c.line,
                }),
                None => out.push(mkfinding(
                    &desc.file,
                    c.line,
                    "layout-missing",
                    format!(
                        "descriptor `{}`: `{}` is not a plain integer literal; the layout verifier cannot model it",
                        desc.name, fs.konst
                    ),
                )),
            },
            None => out.push(mkfinding(
                &desc.file,
                1,
                "layout-missing",
                format!(
                    "descriptor `{}`: offset const `{}{}` not found in {} (renamed? update the schema in hl-analysis)",
                    desc.name,
                    fs.module
                        .as_deref()
                        .map(|m| format!("{m}::"))
                        .unwrap_or_default(),
                    fs.konst,
                    desc.file
                ),
            )),
        }
    }
    Some(ResolvedDesc {
        name: desc.name.clone(),
        file: desc.file.clone(),
        size,
        fields,
    })
}

fn check_desc(d: &ResolvedDesc, out: &mut Vec<Finding>) {
    // Bounds.
    for f in &d.fields {
        if f.offset + f.spec.width > d.size {
            out.push(mkfinding(
                &d.file,
                f.line,
                "layout-bounds",
                format!(
                    "descriptor `{}`: field `{}` at {}..{} exceeds the declared {}-byte size; grow the size const or move the field",
                    d.name,
                    f.spec.konst,
                    f.offset,
                    f.offset + f.spec.width,
                    d.size
                ),
            ));
        }
    }
    // Overlap within one interpretation.
    let mut sorted: Vec<&ResolvedField> = d.fields.iter().collect();
    sorted.sort_by_key(|f| (f.offset, f.spec.width));
    for pair in sorted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.offset + a.spec.width > b.offset {
            out.push(mkfinding(
                &d.file,
                b.line,
                "layout-overlap",
                format!(
                    "descriptor `{}`: `{}` ({}..{}) overlaps `{}` ({}..{}); scattered writes to one would corrupt the other",
                    d.name,
                    a.spec.konst,
                    a.offset,
                    a.offset + a.spec.width,
                    b.spec.konst,
                    b.offset,
                    b.offset + b.spec.width
                ),
            ));
        }
    }
}

/// `K as usize .. K as usize + N` and `[K as usize]` accesses.
fn usage_widths(toks: &[Tok]) -> Vec<(String, u64, u32)> {
    let mut out = Vec::new();
    let t = toks;
    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident {
            continue;
        }
        // K as usize .. K as usize + N
        if i + 9 < t.len()
            && t[i + 1].is_ident("as")
            && t[i + 2].is_ident("usize")
            && t[i + 3].is_punct('.')
            && t[i + 4].is_punct('.')
            && t[i + 5].is_ident(&t[i].text)
            && t[i + 6].is_ident("as")
            && t[i + 7].is_ident("usize")
            && t[i + 8].is_punct('+')
            && t[i + 9].kind == TokKind::Int
        {
            if let Some(w) = parse_int(&t[i + 9].text) {
                out.push((t[i].text.clone(), w, t[i].line));
            }
        }
        // [ K as usize ] = → single-byte access (only when indexing,
        // i.e. followed by `]` directly).
        if i >= 1
            && t[i - 1].is_punct('[')
            && i + 3 < t.len()
            && t[i + 1].is_ident("as")
            && t[i + 2].is_ident("usize")
            && t[i + 3].is_punct(']')
        {
            out.push((t[i].text.clone(), 1, t[i].line));
        }
    }
    out
}

/// Parse `callee(<arg1>, <arg2>, <arg3>)` call sites into token slices
/// per argument (top-level commas only).
fn call_args<'a>(toks: &'a [Tok], callee: &str) -> Vec<(u32, Vec<&'a [Tok]>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_def = i > 0 && toks[i - 1].is_ident("fn");
        if toks[i].is_ident(callee) && !is_def && i + 1 < toks.len() && toks[i + 1].is_punct('(') {
            let line = toks[i].line;
            let mut depth = 1;
            let mut j = i + 2;
            let mut args: Vec<&[Tok]> = Vec::new();
            let mut start = j;
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        args.push(&toks[start..j]);
                    }
                } else if t.is_punct(',') && depth == 1 {
                    args.push(&toks[start..j]);
                    start = j + 1;
                }
                j += 1;
            }
            if args.iter().any(|a| !a.is_empty()) {
                out.push((line, args));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Extract the last `mod :: NAME` path (or a bare literal, or a bare
/// `NAME`) from an argument's tokens.
enum ArgRef {
    Path {
        module: Option<String>,
        name: String,
    },
    Lit(u64),
    Opaque,
}

fn arg_ref(arg: &[Tok]) -> ArgRef {
    // Prefer the last `a :: B` pair; fall back to a single literal.
    let mut found: Option<(Option<String>, String)> = None;
    for i in 0..arg.len() {
        if arg[i].kind == TokKind::Ident
            && i >= 3
            && arg[i - 1].is_punct(':')
            && arg[i - 2].is_punct(':')
            && arg[i - 3].kind == TokKind::Ident
        {
            found = Some((Some(arg[i - 3].text.clone()), arg[i].text.clone()));
        }
    }
    if let Some((m, n)) = found {
        return ArgRef::Path { module: m, name: n };
    }
    if arg.len() == 1 && arg[0].kind == TokKind::Int {
        if let Some(v) = parse_int(&arg[0].text) {
            return ArgRef::Lit(v);
        }
    }
    // A bare `CONST` imported by name.
    let is_const = |t: &&Tok| {
        t.kind == TokKind::Ident
            && t.text.len() > 1
            && t.text
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    };
    if let Some(t) = arg.iter().rev().find(is_const) {
        return ArgRef::Path {
            module: None,
            name: t.text.clone(),
        };
    }
    ArgRef::Opaque
}

/// Verify the workspace layouts under `root` against `schema`.
pub fn verify(root: &Path, schema: &Schema) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    let mut resolved: BTreeMap<String, ResolvedDesc> = BTreeMap::new();

    for desc in &schema.descs {
        let path = root.join(&desc.file);
        let text = std::fs::read_to_string(&path)?;
        let syms = parse_file("", &desc.file, &text);
        if let Some(r) = resolve_desc(desc, &syms.consts, &mut out) {
            check_desc(&r, &mut out);
            if desc.check_usage_widths {
                let (toks, _) = lex(&text);
                for (name, width, line) in usage_widths(&toks) {
                    if let Some(f) = r.fields.iter().find(|f| f.spec.konst == name) {
                        if width != f.spec.width {
                            out.push(mkfinding(
                                &desc.file,
                                line,
                                "layout-mismatch",
                                format!(
                                    "descriptor `{}`: access reads/writes {} bytes at `{}` but the field is declared {} bytes wide",
                                    r.name, width, name, f.spec.width
                                ),
                            ));
                        }
                    }
                }
            }
            resolved.insert(r.name.clone(), r);
        }
    }

    // Cross-descriptor logical consistency: width agreement, and — for
    // descriptors sharing a file-space mirror (same name prefix before
    // '@') — offset agreement.
    let mut logical: BTreeMap<&str, Vec<(&ResolvedDesc, &ResolvedField)>> = BTreeMap::new();
    for d in resolved.values() {
        for f in &d.fields {
            if let Some(l) = &f.spec.logical {
                logical.entry(l.as_str()).or_default().push((d, f));
            }
        }
    }
    for (name, sites) in &logical {
        for pair in sites.windows(2) {
            let ((da, fa), (db, fb)) = (&pair[0], &pair[1]);
            if fa.spec.width != fb.spec.width {
                out.push(mkfinding(
                    &db.file,
                    fb.line,
                    "layout-mismatch",
                    format!(
                        "logical field `{name}` is {} bytes in `{}` ({}) but {} bytes in `{}` ({}); the narrower side drops bytes on the wire",
                        fa.spec.width, da.name, da.file, fb.spec.width, db.name, db.file
                    ),
                ));
            }
        }
        // Mirrored descriptors (same `space@` prefix) must also agree on
        // the offset itself.
        for pair in sites.windows(2) {
            let ((da, fa), (db, fb)) = (&pair[0], &pair[1]);
            let space = |n: &str| n.split('@').nth(1).map(str::to_string);
            if let (Some(sa), Some(sb)) = (space(&da.name), space(&db.name)) {
                if sa == sb && fa.offset != fb.offset {
                    out.push(mkfinding(
                        &db.file,
                        fb.line,
                        "layout-mismatch",
                        format!(
                            "logical field `{name}` sits at offset {} in `{}` ({}) but offset {} in `{}` ({}); mirrored declarations of one layout must agree",
                            fa.offset, da.name, da.file, fb.offset, db.name, db.file
                        ),
                    ));
                }
            }
        }
    }

    // Scatter cross-checks.
    for sc in &schema.scatters {
        let path = root.join(&sc.file);
        let text = std::fs::read_to_string(&path)?;
        let (toks, _) = lex(&text);
        let Some(dst) = resolved.get(&sc.dst_desc) else {
            continue;
        };
        let srcs: Vec<&ResolvedDesc> = sc
            .src_descs
            .iter()
            .filter_map(|n| resolved.get(n))
            .collect();
        for (line, args) in call_args(&toks, &sc.callee) {
            let unresolved = |what: &str| {
                mkfinding(
                    &sc.file,
                    line,
                    "layout-missing",
                    format!(
                        "`{}(..)` patch: {what}; the layout verifier cannot check this row",
                        sc.callee
                    ),
                )
            };
            if args.len() != 3 {
                out.push(unresolved(
                    "expected (source offset, width, destination field)",
                ));
                continue;
            }
            let width = match arg_ref(args[1]) {
                ArgRef::Lit(v) => v,
                _ => {
                    out.push(unresolved("the width is not an integer literal"));
                    continue;
                }
            };
            // Destination: last `<dst_module> :: CONST` in arg 3.
            let dst_field = match arg_ref(args[2]) {
                ArgRef::Path { module, name }
                    if module.as_deref() == Some(sc.dst_module.as_str()) =>
                {
                    dst.fields.iter().find(|f| f.spec.konst == name)
                }
                _ => None,
            };
            if dst_field.is_none() {
                out.push(unresolved(&format!(
                    "the destination is not a `{}::CONST` of descriptor `{}`",
                    sc.dst_module, sc.dst_desc
                )));
            }
            if let Some(df) = dst_field {
                if df.spec.width != width {
                    out.push(mkfinding(
                        &sc.file,
                        line,
                        "layout-mismatch",
                        format!(
                            "scatter writes {width} bytes into `{}::{}` which is {} bytes wide; a short write leaves stale descriptor bytes, a long one corrupts the next field",
                            sc.dst_module, df.spec.konst, df.spec.width
                        ),
                    ));
                }
            }
            // Source: a metadata const path or a literal header offset.
            let src_field = match arg_ref(args[0]) {
                ArgRef::Path { module, name } => srcs.iter().find_map(|d| {
                    d.fields
                        .iter()
                        .find(|f| {
                            f.spec.konst == name && (f.spec.module == module || module.is_none())
                        })
                        .map(|f| (*d, f))
                }),
                ArgRef::Lit(v) => srcs.iter().find_map(|d| {
                    d.fields
                        .iter()
                        .find(|f| f.spec.konst.is_empty() && f.offset == v)
                        .map(|f| (*d, f))
                }),
                ArgRef::Opaque => None,
            };
            if src_field.is_none() {
                out.push(unresolved(
                    "the source offset names no field of the source descriptors",
                ));
            }
            if let Some((sd, sf)) = src_field {
                if sf.spec.width != width {
                    out.push(mkfinding(
                        &sc.file,
                        line,
                        "layout-mismatch",
                        format!(
                            "scatter reads {width} bytes from `{}` field `{}` which is {} bytes wide",
                            sd.name,
                            if sf.spec.konst.is_empty() {
                                "<header>"
                            } else {
                                &sf.spec.konst
                            },
                            sf.spec.width
                        ),
                    ));
                }
                if let (Some(sl), Some(df)) = (&sf.spec.logical, dst_field) {
                    if let Some(dl) = &df.spec.logical {
                        if sl != dl {
                            out.push(mkfinding(
                                &sc.file,
                                line,
                                "layout-mismatch",
                                format!(
                                    "scatter binds logical `{sl}` (src) to logical `{dl}` (dst); cross-crate field identities must match"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    Ok(out)
}

/// How many patch rows the scatter cross-checks of `schema` parse (each
/// one is either verified or reported by [`verify`]).
pub fn scatter_sites(root: &Path, schema: &Schema) -> std::io::Result<usize> {
    let mut n = 0;
    for sc in &schema.scatters {
        let text = std::fs::read_to_string(root.join(&sc.file))?;
        let (toks, _) = lex(&text);
        n += call_args(&toks, &sc.callee).len();
    }
    Ok(n)
}

/// Markdown table of the resolved descriptors, for CI job summaries.
pub fn summary_md(root: &Path, schema: &Schema) -> std::io::Result<String> {
    let mut s = String::from("| descriptor | file | size | fields |\n|---|---|---|---|\n");
    for desc in &schema.descs {
        let path = root.join(&desc.file);
        let text = std::fs::read_to_string(&path)?;
        let syms = parse_file("", &desc.file, &text);
        let mut sink = Vec::new();
        if let Some(r) = resolve_desc(desc, &syms.consts, &mut sink) {
            let mut fields: Vec<String> = r
                .fields
                .iter()
                .map(|f| {
                    format!(
                        "{} {}..{}",
                        if f.spec.konst.is_empty() {
                            "seq"
                        } else {
                            &f.spec.konst
                        },
                        f.offset,
                        f.offset + f.spec.width
                    )
                })
                .collect();
            fields.sort();
            s.push_str(&format!(
                "| {} | {} | {} B | {} |\n",
                r.name,
                r.file,
                r.size,
                fields.join(", ")
            ));
        }
    }
    Ok(s)
}
