//! The determinism rules.
//!
//! Each rule walks the token stream produced by [`crate::lexer`] and
//! reports findings. A finding is suppressed by an inline
//! `// hl-lint: allow(<rule>)` comment — the escape hatch for sites
//! that were audited and are deterministic despite matching the
//! pattern (e.g. the NIC's seeded log-normal jitter). An allow is
//! scoped to exactly one item or statement: trailing an offending line
//! it covers that line; on its own line it covers the next statement or
//! item (however many lines it spans) and nothing beyond its
//! terminating `;`/`}` — it can never silence the rest of a file.

use crate::lexer::{lex, Allow, Tok, TokKind};

/// Rule identifiers, as used in findings and allow-comments.
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-collections",
        "std HashMap/HashSet iterate in RandomState order; sim code must use BTreeMap/BTreeSet",
    ),
    (
        "wall-clock",
        "std::time::Instant/SystemTime read the host clock; sim code must use hl_sim::SimTime",
    ),
    (
        "os-entropy",
        "thread_rng/OsRng/getrandom draw OS entropy; sim code must use the seeded hl_sim::RngStream",
    ),
    (
        "thread-spawn",
        "std::thread::spawn introduces host scheduling order; the simulator is single-threaded",
    ),
    (
        "float-time",
        "floating-point values flowing into SimTime/SimDuration constructors accumulate platform-dependent rounding",
    ),
    (
        "panic-in-handler",
        "panic!/unwrap/expect inside NIC packet/doorbell handlers; faults must surface as error CQEs",
    ),
    (
        "rand-raw",
        "raw rand:: paths bypass the named-stream RNG API; derive a stream via hl_sim::RngFactory::stream",
    ),
    (
        "wire-truncation",
        "`as` cast narrows a wire-format field (psn/raddr/op/...) below its declared width, silently dropping bytes",
    ),
    (
        "libm-in-datapath",
        "transcendental float call (.ln/.exp/.cos/.sin/.powf) in non-test datapath code; sample from a table built at set-up",
    ),
    (
        "dropped-refusal",
        "`let _ =` or `.ok()` discards a group issue's Backpressure refusal, so its completion never fires; re-issue it after a backoff",
    ),
];

/// Wire-format field names and their declared byte widths (WQE,
/// metadata and naive-descriptor layouts). A direct `<field> as <ty>`
/// cast to a narrower integer silently drops bytes of the wire value;
/// an intentional narrowing must mask first (`(x & 0xffff_ffff) as u32`),
/// which documents the truncation and is not flagged.
const WIRE_FIELDS: &[(&str, u64)] = &[
    ("psn", 8),
    ("raddr", 8),
    ("laddr", 8),
    ("wr_id", 8),
    ("cmp", 8),
    ("swp", 8),
    ("imm", 4),
    ("op", 4),
    ("len", 4),
    ("lkey", 4),
    ("rkey", 4),
    ("activate_n", 2),
];

/// NIC state-machine entry points in which `panic-in-handler` applies:
/// the packet receive path, timer expiry, doorbell, local-DMA completion
/// and CQE delivery. A malformed packet or corrupted descriptor reaching
/// these must produce an error CQE, not a process abort.
const HANDLER_FNS: &[&str] = &[
    "on_packet",
    "on_timer",
    "ring_doorbell",
    "finish_local",
    "deliver_cqe",
];

/// Idents that, seen as `.ident(`, panic in handlers.
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];

/// Macro idents that, seen as `ident!`, panic in handlers.
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

/// `SimTime`/`SimDuration` constructor names checked by `float-time`.
const TIME_CTORS: &[&str] = &["from_nanos", "from_micros", "from_millis", "from_secs"];

/// Float-producing method calls that taint a timestamp argument.
const FLOATY_METHODS: &[&str] = &["round", "ceil", "floor", "powf", "sqrt", "exp", "ln"];

/// `f64` methods that compile to a libm call, checked by
/// `libm-in-datapath`.
const LIBM_METHODS: &[&str] = &["ln", "exp", "cos", "sin", "powf"];

/// Methods that issue a group operation and return
/// `Result<_, Backpressure>`, checked by `dropped-refusal`.
const GROUP_ISSUES: &[&str] = &[
    "gwrite",
    "gmemcpy",
    "gcas",
    "gflush",
    "append",
    "execute_and_advance",
    "truncate_to",
    "wr_lock",
    "wr_unlock",
    "rd_lock",
    "rd_unlock",
    "upsert",
    "checkpoint",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// File the finding is in (as given to [`check_source`]).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lint one source file. `file` is used only for reporting.
pub fn check_source(file: &str, src: &str) -> Vec<Finding> {
    let (toks, allows) = lex(src);
    let mut findings = Vec::new();
    rule_banned_idents(file, &toks, &mut findings);
    rule_thread_spawn(file, &toks, &mut findings);
    rule_float_time(file, &toks, &mut findings);
    rule_panic_in_handler(file, &toks, &mut findings);
    rule_rand_raw(file, &toks, &mut findings);
    rule_wire_truncation(file, &toks, &mut findings);
    rule_libm_in_datapath(file, &toks, &mut findings);
    rule_dropped_refusal(file, &toks, &mut findings);
    let ranges = allow_ranges(&toks, &allows);
    findings.retain(|f| {
        !ranges
            .iter()
            .any(|r| r.rule == f.rule && r.start <= f.line && f.line <= r.end)
    });
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Line span one `// hl-lint: allow(<rule>)` comment suppresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRange {
    /// Suppressed rule.
    pub rule: String,
    /// First suppressed line (the comment's own line).
    pub start: u32,
    /// Last suppressed line (end of the covered statement/item).
    pub end: u32,
}

/// Resolve allow-comments to statement-scoped line ranges.
///
/// A trailing allow (code on the same line) covers that line only. An
/// allow on its own line covers the next statement or item: from the
/// first following token through the token that terminates it — a `;`
/// or `,` at the statement's own nesting depth, or the `}` closing a
/// block the statement opened (so an allow above a `fn` covers that one
/// item, never the rest of the file).
pub fn allow_ranges(toks: &[Tok], allows: &[Allow]) -> Vec<AllowRange> {
    allows
        .iter()
        .map(|a| {
            let trailing = toks.iter().any(|t| t.line == a.line);
            if trailing {
                return AllowRange {
                    rule: a.rule.clone(),
                    start: a.line,
                    end: a.line,
                };
            }
            // First token after the comment line starts the statement.
            let Some(start_idx) = toks.iter().position(|t| t.line > a.line) else {
                return AllowRange {
                    rule: a.rule.clone(),
                    start: a.line,
                    end: a.line,
                };
            };
            let mut depth: i64 = 0;
            // Approximate generic-angle depth so the `,` in
            // `HashMap<u32, u8>` does not terminate the statement: `<`
            // counts only in type/path position (after an ident or
            // `::`), which is where statement-level commas can hide.
            let mut angle: i64 = 0;
            let mut end = toks[start_idx].line;
            let mut prev_ident_or_colon = false;
            for t in &toks[start_idx..] {
                end = t.line;
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                    // Closing the statement's own block (`fn f() { .. }`)
                    // or stepping out of the enclosing scope both end it.
                    if depth <= 0 && t.is_punct('}') {
                        break;
                    }
                    if depth < 0 {
                        break;
                    }
                } else if t.is_punct('<') && prev_ident_or_colon {
                    angle += 1;
                } else if t.is_punct('>') && angle > 0 {
                    angle -= 1;
                } else if t.is_punct(';') && depth == 0 {
                    // A `;` ends a statement no matter what (it cannot
                    // occur inside generics), so a mis-counted `<` from
                    // a comparison cannot extend coverage past it.
                    break;
                } else if t.is_punct(',') && depth == 0 && angle == 0 {
                    break;
                }
                prev_ident_or_colon = t.kind == TokKind::Ident || t.is_punct(':');
            }
            AllowRange {
                rule: a.rule.clone(),
                start: a.line,
                end,
            }
        })
        .collect()
}

/// `hash-collections`, `wall-clock`, `os-entropy`: single banned idents.
fn rule_banned_idents(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.kind != TokKind::Ident {
            continue;
        }
        let rule = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(("hash-collections", "use BTreeMap/BTreeSet instead")),
            "Instant" | "SystemTime" => Some(("wall-clock", "use hl_sim::SimTime instead")),
            "thread_rng" | "OsRng" | "from_entropy" | "getrandom" | "RandomState" => {
                Some(("os-entropy", "use the seeded hl_sim::RngStream instead"))
            }
            _ => None,
        };
        if let Some((rule, fix)) = rule {
            out.push(Finding {
                rule,
                file: file.to_string(),
                line: t.line,
                message: format!("`{}` is nondeterministic in sim code; {}", t.text, fix),
            });
        }
    }
}

/// `thread-spawn`: the token sequences `thread :: spawn` and
/// `thread :: scope`. Scoped spawns are caught at the `scope` call —
/// every `Scope::spawn` needs one, so linting the scope entry covers
/// all of them with a single site to `allow` and justify.
fn rule_thread_spawn(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for w in toks.windows(4) {
        if w[0].is_ident("thread")
            && w[1].is_punct(':')
            && w[2].is_punct(':')
            && (w[3].is_ident("spawn") || w[3].is_ident("scope"))
        {
            out.push(Finding {
                rule: "thread-spawn",
                file: file.to_string(),
                line: w[3].line,
                message:
                    "OS threads race the deterministic event loop; model concurrency as sim events"
                        .to_string(),
            });
        }
    }
}

/// `float-time`: a `SimTime::from_*`/`SimDuration::from_*` call whose
/// argument tokens contain a float literal, an `f32`/`f64` cast, or a
/// float-producing method (`.round()` etc.).
fn rule_float_time(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        let is_ctor = toks[i].kind == TokKind::Ident
            && (toks[i].text == "SimTime" || toks[i].text == "SimDuration")
            && i + 4 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident
            && TIME_CTORS.contains(&toks[i + 3].text.as_str())
            && toks[i + 4].is_punct('(');
        if !is_ctor {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        // Scan the balanced argument list.
        let mut depth = 1;
        let mut j = i + 5;
        let mut tainted: Option<String> = None;
        while j < toks.len() && depth > 0 {
            let t = &toks[j];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
            } else if t.kind == TokKind::Float {
                tainted = Some(format!("float literal `{}`", t.text));
            } else if t.is_ident("f32") || t.is_ident("f64") {
                tainted = Some(format!("`{}` value", t.text));
            } else if t.kind == TokKind::Ident
                && FLOATY_METHODS.contains(&t.text.as_str())
                && j > 0
                && toks[j - 1].is_punct('.')
            {
                tainted = Some(format!("`.{}()` result", t.text));
            }
            j += 1;
        }
        if let Some(what) = tainted {
            out.push(Finding {
                rule: "float-time",
                file: file.to_string(),
                line,
                message: format!(
                    "{} flows into a {} timestamp; accumulate in integer nanoseconds",
                    what, toks[i].text
                ),
            });
        }
        i = j;
    }
}

/// `panic-in-handler`: `.unwrap()`/`.expect()`/`panic!`-family inside a
/// function whose name marks it as a NIC packet/doorbell handler.
///
/// Function extents are tracked by brace depth: after `fn <handler>` the
/// body starts at the next `{` outside parentheses and ends when the
/// depth returns to its opening value. Closures inside the body count as
/// part of the handler (they run on the same call path).
fn rule_panic_in_handler(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut brace_depth: i64 = 0;
    // (fn name, depth its body opened at); handlers only, innermost last.
    let mut stack: Vec<(String, i64)> = Vec::new();
    // A handler fn seen, waiting for its body `{` (skipping params and
    // return type); None when not inside a pending header.
    let mut pending: Option<String> = None;
    let mut paren_depth: i64 = 0;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            paren_depth += 1;
        } else if t.is_punct(')') {
            paren_depth -= 1;
        } else if t.is_punct('{') {
            brace_depth += 1;
            if paren_depth == 0 {
                if let Some(name) = pending.take() {
                    stack.push((name, brace_depth));
                }
            }
        } else if t.is_punct('}') {
            if let Some((_, open)) = stack.last() {
                if brace_depth == *open {
                    stack.pop();
                }
            }
            brace_depth -= 1;
        } else if t.is_ident("fn")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && paren_depth == 0
        {
            if HANDLER_FNS.contains(&toks[i + 1].text.as_str()) {
                pending = Some(toks[i + 1].text.clone());
            } else {
                pending = None;
            }
        } else if !stack.is_empty() && t.kind == TokKind::Ident {
            let in_handler = &stack.last().unwrap().0;
            let next_is = |c: char| i + 1 < toks.len() && toks[i + 1].is_punct(c);
            let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
            if PANICKY_METHODS.contains(&t.text.as_str()) && prev_is_dot && next_is('(') {
                out.push(Finding {
                    rule: "panic-in-handler",
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "`.{}()` in NIC handler `{}`; surface the fault as an error CQE",
                        t.text, in_handler
                    ),
                });
            } else if PANICKY_MACROS.contains(&t.text.as_str()) && next_is('!') {
                out.push(Finding {
                    rule: "panic-in-handler",
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}!` in NIC handler `{}`; surface the fault as an error CQE",
                        t.text, in_handler
                    ),
                });
            }
        }
        i += 1;
    }
}

/// `rand-raw`: any `rand::` path. The workspace's only sanctioned
/// randomness is the seeded, named hl_sim::RngStream; a raw `rand` call
/// either draws OS entropy or, even seeded, couples draw order across
/// consumers (adding one perturbs all experiments).
fn rule_rand_raw(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for w in toks.windows(3) {
        if w[0].is_ident("rand") && w[1].is_punct(':') && w[2].is_punct(':') {
            out.push(Finding {
                rule: "rand-raw",
                file: file.to_string(),
                line: w[0].line,
                message: "raw `rand::` bypasses the named RNG streams; derive one with hl_sim::RngFactory::stream(\"<name>\")"
                    .to_string(),
            });
        }
    }
}

/// `wire-truncation`: `<wire field> as <narrower int>` without an
/// explicit mask. The direct form silently drops the field's high
/// bytes (e.g. `psn as u32` wraps after 4 Gi packets); a masked cast
/// (`(psn & 0xffff_ffff) as u32`) states the intent and is exempt
/// because the token before `as` is then `)`.
fn rule_wire_truncation(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for w in toks.windows(3) {
        let (field, cast, ty) = (&w[0], &w[1], &w[2]);
        if field.kind != TokKind::Ident || !cast.is_ident("as") || ty.kind != TokKind::Ident {
            continue;
        }
        let Some((_, width)) = WIRE_FIELDS.iter().find(|(n, _)| field.is_ident(n)) else {
            continue;
        };
        let target = match ty.text.as_str() {
            "u8" | "i8" => 1,
            "u16" | "i16" => 2,
            "u32" | "i32" => 4,
            _ => continue,
        };
        if target < *width {
            out.push(Finding {
                rule: "wire-truncation",
                file: file.to_string(),
                line: field.line,
                message: format!(
                    "`{} as {}` drops bytes of a {}-byte wire field; mask explicitly if the truncation is intended",
                    field.text, ty.text, width
                ),
            });
        }
    }
}

/// `libm-in-datapath`: `.ln()`, `.exp()`, `.cos()`, `.sin()` or
/// `.powf()` outside `#[cfg(test)]` items. Each is tens of nanoseconds
/// of host time and makes the simulated bytes depend on the platform's
/// libm; the 18 such draws per gWRITE were a fifth of the simulator's
/// cost before the jitter table. Set-up code and rare paths carry an
/// allow with the reason. Which crates count as datapath is the
/// caller's business ([`crate::DATAPATH_CRATES`]).
fn rule_libm_in_datapath(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if let Some(after) = skip_cfg_test_item(toks, i) {
            i = after;
            continue;
        }
        if toks[i].is_punct('.')
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && LIBM_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct('(')
        {
            out.push(Finding {
                rule: "libm-in-datapath",
                file: file.to_string(),
                line: toks[i + 1].line,
                message: format!(
                    "`.{}()` is a libm call per use; tabulate it at set-up or allow it with the reason",
                    toks[i + 1].text
                ),
            });
        }
        i += 1;
    }
}

/// `dropped-refusal`: `let _ = <expr>;` whose expression calls a group
/// issue ([`GROUP_ISSUES`], as `.name(` or `::name(`), or
/// `name(..).ok()` on one, outside `#[cfg(test)]` items. A refused
/// issue never runs its completion, so whoever waits on it hangs; the
/// fix is to re-issue after a backoff. A deliberate drop carries an
/// allow with the reason.
fn rule_dropped_refusal(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let issue_at = |j: usize| {
        j > 0
            && (toks[j - 1].is_punct('.') || toks[j - 1].is_punct(':'))
            && toks[j].kind == TokKind::Ident
            && GROUP_ISSUES.contains(&toks[j].text.as_str())
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
    };
    let mut push = |line: u32, what: &str| {
        out.push(Finding {
            rule: "dropped-refusal",
            file: file.to_string(),
            line,
            message: format!(
                "{what} discards a group issue's refusal; re-issue it after a backoff or allow it with the reason"
            ),
        });
    };
    let mut i = 0;
    while i < toks.len() {
        if let Some(after) = skip_cfg_test_item(toks, i) {
            i = after;
            continue;
        }
        let t = &toks[i];
        if t.is_ident("let")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            // The statement runs to the `;` at its own depth.
            let mut depth: i64 = 0;
            let mut end = i + 3;
            while end < toks.len() {
                let e = &toks[end];
                if e.is_punct('(') || e.is_punct('[') || e.is_punct('{') {
                    depth += 1;
                } else if e.is_punct(')') || e.is_punct(']') || e.is_punct('}') {
                    depth -= 1;
                } else if e.is_punct(';') && depth <= 0 {
                    break;
                }
                end += 1;
            }
            if (i + 3..end).any(issue_at) {
                push(t.line, "`let _ =`");
            }
        } else if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("ok"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && i > 0
            && toks[i - 1].is_punct(')')
        {
            // Walk back to the `(` that the `)` before `.ok()` closes.
            let mut depth = 0;
            let mut open = i - 1;
            loop {
                if toks[open].is_punct(')') {
                    depth += 1;
                } else if toks[open].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if open == 0 {
                    break;
                }
                open -= 1;
            }
            if open > 0 && issue_at(open - 1) {
                push(toks[i + 1].line, "`.ok()`");
            }
        }
        i += 1;
    }
}

/// If `toks[i..]` starts with `#[cfg(test)]`, the index just past the
/// item it gates (through its closing `}` or terminating `;`).
fn skip_cfg_test_item(toks: &[Tok], i: usize) -> Option<usize> {
    let attr = toks.get(i..i + 7)?;
    let is_attr = attr[0].is_punct('#')
        && attr[1].is_punct('[')
        && attr[2].is_ident("cfg")
        && attr[3].is_punct('(')
        && attr[4].is_ident("test")
        && attr[5].is_punct(')')
        && attr[6].is_punct(']');
    if !is_attr {
        return None;
    }
    let mut depth: i64 = 0;
    for (j, t) in toks.iter().enumerate().skip(i + 7) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 && t.is_punct('}') {
                return Some(j + 1);
            }
        } else if t.is_punct(';') && depth == 0 {
            return Some(j + 1);
        }
    }
    Some(toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(src: &str) -> Vec<&'static str> {
        check_source("t.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn clean_code_is_clean() {
        assert!(rules_fired(
            "use std::collections::BTreeMap;\nfn f(t: SimTime) -> SimTime { t + SimDuration::from_nanos(5) }"
        )
        .is_empty());
    }

    #[test]
    fn allow_scoped_to_statement() {
        let same = "let m: HashMap<u32, u8> = HashMap::new(); // hl-lint: allow(hash-collections)";
        assert!(rules_fired(same).is_empty());
        let above = "// vetted -- hl-lint: allow(hash-collections)\nlet m: HashMap<u32, u8> = HashMap::new();";
        assert!(rules_fired(above).is_empty());
        let wrong_rule = "let m: HashMap<u32, u8> = HashMap::new(); // hl-lint: allow(wall-clock)";
        assert_eq!(
            rules_fired(wrong_rule),
            ["hash-collections", "hash-collections"]
        );
    }

    #[test]
    fn allow_covers_multiline_statement_but_not_beyond() {
        // The statement below the comment spans three lines: all covered.
        let multi = "// audited -- hl-lint: allow(hash-collections)\nlet m: HashMap<u32, u8> =\n    HashMap::with_capacity(\n        4);\nlet n: HashMap<u32, u8> = HashMap::new();";
        assert_eq!(
            rules_fired(multi),
            ["hash-collections", "hash-collections"],
            "only the statement after the comment is suppressed"
        );
        // An allow above one fn item must not bleed into the next item.
        let item = "// hl-lint: allow(wall-clock)\nfn a() { let t = Instant::now(); }\nfn b() { let t = Instant::now(); }";
        assert_eq!(rules_fired(item), ["wall-clock"]);
    }

    #[test]
    fn trailing_allow_does_not_cover_next_line() {
        let src = "let a: HashMap<u32, u8> = known_safe(); // hl-lint: allow(hash-collections)\nlet b: HashMap<u32, u8> = known_safe();";
        assert_eq!(rules_fired(src), ["hash-collections"]);
    }

    #[test]
    fn rand_raw_paths() {
        assert_eq!(rules_fired("let x = rand::random::<u64>();"), ["rand-raw"]);
        assert!(rules_fired("let s = factory.stream(\"nic-jitter\");").is_empty());
    }

    #[test]
    fn wire_truncation_needs_bare_field_cast() {
        assert_eq!(rules_fired("let x = pkt.psn as u32;"), ["wire-truncation"]);
        assert_eq!(rules_fired("let x = w.raddr as u32;"), ["wire-truncation"]);
        // Masked casts document the truncation and pass.
        assert!(rules_fired("let x = (pkt.psn & 0xffff_ffff) as u32;").is_empty());
        // Widening or same-width casts pass.
        assert!(rules_fired("let x = imm as u64; let y = len as u32;").is_empty());
        // Unrelated identifiers pass.
        assert!(rules_fired("let x = count as u8;").is_empty());
    }

    #[test]
    fn libm_calls_outside_test_items() {
        assert_eq!(
            rules_fired("fn f(x: f64) -> f64 { (x.ln() * 2.0).exp() }"),
            ["libm-in-datapath", "libm-in-datapath"]
        );
        // Not libm: integer powers, sqrt (an instruction), a field or a
        // free function that happens to be called `exp`.
        assert!(
            rules_fired("fn f(x: f64) -> f64 { x.powi(2).sqrt() + s.exp + exp(x) }").is_empty()
        );
        // `#[cfg(test)]` gates exactly one item, mod or fn.
        let gated = "#[cfg(test)]\nmod tests { fn r(x: f64) -> f64 { x.cos() } }\n#[cfg(test)]\nfn h(x: f64) -> f64 { x.sin() }\nfn live(x: f64) -> f64 { x.powf(1.5) }";
        assert_eq!(rules_fired(gated), ["libm-in-datapath"]);
        assert!(
            rules_fired("let y = x.ln(); // rare path -- hl-lint: allow(libm-in-datapath)")
                .is_empty()
        );
    }

    #[test]
    fn dropped_refusals_of_group_issues() {
        assert_eq!(
            rules_fired("let _ = client.gwrite(w, eng, 0, &b, true, done);"),
            ["dropped-refusal"]
        );
        assert_eq!(
            rules_fired("let _ = self\n    .log\n    .truncate_to(w, eng, to, done);"),
            ["dropped-refusal"]
        );
        assert_eq!(
            rules_fired("GroupClient::gcas(&*c, w, eng, off, 0, 1, 7, done).ok();"),
            ["dropped-refusal"]
        );
        // Not a group issue, a handled refusal, or a test item.
        assert!(rules_fired("let _ = self.flush(0, n); let x = s.parse::<u64>().ok();").is_empty());
        assert!(
            rules_fired("if c.gwrite(w, eng, 0, &b, true, done).is_err() { retry(); }").is_empty()
        );
        assert!(
            rules_fired("#[cfg(test)]\nfn t() { let _ = c.gflush(w, eng, 0, 8, d); }").is_empty()
        );
        assert!(rules_fired(
            "// opportunistic -- hl-lint: allow(dropped-refusal)\nlet _ = log.truncate_to(w, eng, 8, d);"
        )
        .is_empty());
    }

    #[test]
    fn float_time_needs_taint() {
        assert!(rules_fired("let t = SimDuration::from_nanos(x + 5);").is_empty());
        assert_eq!(
            rules_fired("let t = SimDuration::from_nanos(ns.round() as u64);"),
            ["float-time"]
        );
        assert_eq!(
            rules_fired("let t = SimTime::from_nanos((x as f64 * 1.5) as u64);"),
            ["float-time"]
        );
    }

    #[test]
    fn panic_scoped_to_handlers() {
        assert!(rules_fired("fn helper(&self) { self.x.unwrap(); }").is_empty());
        assert_eq!(
            rules_fired("fn on_packet(&mut self) { self.x.unwrap(); }"),
            ["panic-in-handler"]
        );
        // A non-handler fn *after* a handler closes is out of scope again.
        assert!(rules_fired(
            "fn on_packet(&mut self) { let x = 1; }\nfn helper(&self) { self.x.expect(\"boom\"); }"
        )
        .is_empty());
    }
}
