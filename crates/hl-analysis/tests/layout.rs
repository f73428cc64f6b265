//! Layout-verifier self-tests: overlap, out-of-bounds and cross-crate
//! offset mismatch each fail with an actionable message over the
//! fixtures in `tests/fixtures/layout/`, and the real workspace schema
//! verifies clean.

use hl_analysis::layout::{
    builtin_schema, scatter_sites, verify, DescSpec, FieldSpec, ScatterSpec, Schema, SizeRef,
};
use std::path::PathBuf;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn desc(name: &str, file: &str, fields: Vec<FieldSpec>) -> DescSpec {
    DescSpec {
        name: name.into(),
        file: file.into(),
        size: SizeRef::Const("DESC_SIZE".into()),
        fields,
        check_usage_widths: false,
    }
}

#[test]
fn overlap_is_detected() {
    let schema = Schema {
        descs: vec![desc(
            "fix",
            "tests/fixtures/layout/overlap.rs",
            vec![
                FieldSpec::new(None, "A", 8, None),
                FieldSpec::new(None, "B", 8, None),
            ],
        )],
        scatters: vec![],
    };
    let findings = verify(&manifest_dir(), &schema).unwrap();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "layout-overlap");
    assert!(
        findings[0]
            .message
            .contains("`A` (0..8) overlaps `B` (4..12)"),
        "actionable ranges in message: {}",
        findings[0].message
    );
}

#[test]
fn out_of_bounds_is_detected() {
    let schema = Schema {
        descs: vec![desc(
            "fix",
            "tests/fixtures/layout/oob.rs",
            vec![
                FieldSpec::new(None, "HEAD", 8, None),
                FieldSpec::new(None, "TAIL", 8, None),
            ],
        )],
        scatters: vec![],
    };
    let findings = verify(&manifest_dir(), &schema).unwrap();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "layout-bounds");
    assert!(
        findings[0]
            .message
            .contains("`TAIL` at 12..20 exceeds the declared 16-byte size"),
        "actionable bounds in message: {}",
        findings[0].message
    );
}

/// Two mirrored declarations of one descriptor (`@shared` space) bind
/// the same logical field to different offsets.
#[test]
fn cross_crate_offset_mismatch_is_detected() {
    let schema = Schema {
        descs: vec![
            desc(
                "a@shared",
                "tests/fixtures/layout/mismatch_a.rs",
                vec![FieldSpec::new(None, "OP", 4, Some("op-id"))],
            ),
            desc(
                "b@shared",
                "tests/fixtures/layout/mismatch_b.rs",
                vec![FieldSpec::new(None, "OP_OFF", 4, Some("op-id"))],
            ),
        ],
        scatters: vec![],
    };
    let findings = verify(&manifest_dir(), &schema).unwrap();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "layout-mismatch");
    assert!(
        findings[0].message.contains("offset 8") && findings[0].message.contains("offset 12"),
        "both offsets named: {}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("op-id"),
        "logical field named: {}",
        findings[0].message
    );
}

fn patch_fixture(src_width: u64, callee: &str) -> Schema {
    let file = "tests/fixtures/layout/patch_width.rs";
    Schema {
        descs: vec![
            desc(
                "fix-wqe",
                file,
                vec![FieldSpec::new(Some("field_offset"), "LADDR", 8, None)],
            ),
            desc(
                "fix-rec",
                file,
                vec![FieldSpec::new(Some("rec"), "SRC", src_width, None)],
            ),
        ],
        scatters: vec![ScatterSpec {
            file: file.into(),
            callee: callee.into(),
            src_descs: vec!["fix-rec".into()],
            dst_desc: "fix-wqe".into(),
            dst_module: "field_offset".into(),
        }],
    }
}

/// A slot-program patch that moves 4 bytes into an 8-byte WQE field.
#[test]
fn short_patch_into_wide_field_is_detected() {
    let findings = verify(&manifest_dir(), &patch_fixture(4, "pat")).unwrap();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "layout-mismatch");
    assert!(
        findings[0]
            .message
            .contains("writes 4 bytes into `field_offset::LADDR` which is 8 bytes wide"),
        "both widths named: {}",
        findings[0].message
    );
}

/// A patch row the pass cannot resolve is a finding, not a skipped row:
/// here the source offset names a field of no source descriptor.
#[test]
fn unresolvable_patch_is_detected() {
    let mut schema = patch_fixture(4, "pat");
    schema.scatters[0].src_descs.clear();
    let findings = verify(&manifest_dir(), &schema).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "layout-missing" && f.message.contains("source offset")),
        "{findings:#?}"
    );
}

/// A renamed/missing const is an error, not silent loss of coverage.
#[test]
fn missing_const_is_detected() {
    let schema = Schema {
        descs: vec![desc(
            "fix",
            "tests/fixtures/layout/overlap.rs",
            vec![FieldSpec::new(None, "GONE", 4, None)],
        )],
        scatters: vec![],
    };
    let findings = verify(&manifest_dir(), &schema).unwrap();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "layout-missing");
}

/// The real workspace wire formats verify clean under the built-in
/// schema — the same gate `cargo run -p hl-analysis -- layout` enforces.
#[test]
fn real_workspace_layout_clean() {
    let root = manifest_dir();
    let root = root.parent().unwrap().parent().unwrap();
    let findings = verify(root, &builtin_schema()).unwrap();
    assert!(
        findings.is_empty(),
        "layout verifier failed on the workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The built-in schema actually resolves every field it declares (no
/// vacuous success from a renamed const silently matching nothing).
#[test]
fn builtin_schema_is_fully_resolved() {
    let root = manifest_dir();
    let root = root.parent().unwrap().parent().unwrap();
    let schema = builtin_schema();
    let n_fields: usize = schema.descs.iter().map(|d| d.fields.len()).sum();
    assert!(n_fields >= 30, "schema should model the full wire formats");
    // A clean verify over a schema with this many fields plus the
    // layout-missing rule (tested above) implies every const resolved.
    let findings = verify(root, &schema).unwrap();
    assert!(findings.is_empty(), "{findings:#?}");
    // Likewise the patch rows: the chain's (gWRITE mid and tail, gMEMCPY,
    // gCAS), fan-out's and multi-client's all live in `program.rs`, and a
    // clean verify means every one of them resolved.
    let rows = scatter_sites(root, &schema).unwrap();
    assert!(
        rows >= 20,
        "only {rows} patch rows parsed out of program.rs"
    );
}
