//! Structured, causal telemetry: op spans, per-hop latency attribution
//! and a labelled metrics registry.
//!
//! The free-form [`crate::Tracer`] answers "what happened"; this module
//! answers "where did the latency go". Every group primitive (and every
//! naive-baseline op) allocates an **OpId** at issue time. The id rides
//! inside WQE descriptors, fabric packets and CQEs, so each layer can
//! stamp a typed [`Stage`] event onto the op without knowing anything
//! about the layers above it. The resulting per-op event list is a
//! causal span: sorting the events by time and taking consecutive
//! deltas decomposes the end-to-end latency into named hop segments
//! (client post, wire, WAIT block, DMA, replica CPU, …) whose durations
//! telescope to the measured latency *exactly* — integer nanoseconds,
//! no residue.
//!
//! Three consumers sit on top:
//!
//! * [`Telemetry::attribution`] — per-kind latency breakdown ranking
//!   segments by their contribution to the mean/p50/p99 (the paper's
//!   Fig 2/9 "where does the tail come from" analysis);
//! * [`Metrics`] — counters/gauges/histograms keyed by
//!   `(name, labels)` in `BTreeMap`s so iteration (and any render) is
//!   deterministic by name;
//! * [`Telemetry::chrome_trace`] — a hand-rolled Chrome trace-event
//!   JSON export (fixed field order, integer-derived timestamps) that
//!   loads in Perfetto / `chrome://tracing`.

use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};
use crate::timeseries::TimeSeries;
use std::collections::{BTreeMap, VecDeque};

/// What kind of operation a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// HyperLoop gWRITE (optionally with interleaved gFLUSH).
    GWrite,
    /// HyperLoop standalone gFLUSH (rides the gWRITE ring).
    GFlush,
    /// HyperLoop gMEMCPY.
    GMemcpy,
    /// HyperLoop gCAS.
    GCas,
    /// Naive-baseline replicated write.
    NaiveWrite,
    /// Naive-baseline flush.
    NaiveFlush,
    /// Naive-baseline memcpy (log apply).
    NaiveMemcpy,
    /// Naive-baseline CAS.
    NaiveCas,
}

impl OpKind {
    /// Short label used in exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::GWrite => "gWRITE",
            OpKind::GFlush => "gFLUSH",
            OpKind::GMemcpy => "gMEMCPY",
            OpKind::GCas => "gCAS",
            OpKind::NaiveWrite => "naive-WRITE",
            OpKind::NaiveFlush => "naive-FLUSH",
            OpKind::NaiveMemcpy => "naive-MEMCPY",
            OpKind::NaiveCas => "naive-CAS",
        }
    }
}

/// A typed point on an op's causal timeline.
///
/// Each stage *ends* a named segment: the time between the previous
/// event and this one is attributed to [`Stage::segment`]. `OpBegin`
/// opens the span and ends nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Span opened (op issued by the client library).
    OpBegin,
    /// Client finished building descriptors and rang the doorbell.
    ClientPost,
    /// A NIC fetched one of the op's WQEs from host memory.
    NicFetch,
    /// A WAIT WQE for this op parked (its CQ condition not yet met).
    WaitPark,
    /// A parked WAIT unblocked and granted the op's WQEs to the NIC.
    WaitFire,
    /// A packet belonging to the op left a NIC onto the wire.
    TxWire,
    /// A packet belonging to the op arrived at a NIC.
    RxWire,
    /// A NIC-local DMA (copy/CAS/flush) for the op finished.
    DmaDone,
    /// A CQE for the op was delivered to a completion queue.
    CqeDeliver,
    /// A replica CPU picked the op off its run queue (naive only).
    CpuWake,
    /// A replica CPU finished processing the op (naive only).
    CpuDone,
    /// Span closed (group ACK reached the issuing client).
    OpEnd,
}

impl Stage {
    /// Name of the segment this stage ends, if any.
    pub fn segment(self) -> Option<&'static str> {
        match self {
            Stage::OpBegin => None,
            Stage::ClientPost => Some("client-post"),
            Stage::NicFetch => Some("nic-queue"),
            Stage::WaitPark => Some("nic-queue"),
            Stage::WaitFire => Some("wait-block"),
            Stage::TxWire => Some("wqe-exec"),
            Stage::RxWire => Some("wire"),
            Stage::DmaDone => Some("dma"),
            Stage::CqeDeliver => Some("cqe-deliver"),
            Stage::CpuWake => Some("cpu-queue"),
            Stage::CpuDone => Some("replica-cpu"),
            Stage::OpEnd => Some("ack-deliver"),
        }
    }
}

/// One stamped event on an op's timeline.
#[derive(Debug, Clone, Copy)]
pub struct OpEvent {
    /// When the stage was reached.
    pub at: SimTime,
    /// The stage.
    pub stage: Stage,
    /// Host on which the stage happened.
    pub host: usize,
    /// Stage-specific detail (QP or CQ number; 0 when not meaningful).
    pub detail: u32,
}

/// The full causal record of one operation.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Op id (non-zero; 0 is the "untracked" sentinel in descriptors).
    pub id: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Issue time.
    pub begin: SimTime,
    /// Completion time; `None` while in flight (or lost).
    pub end: Option<SimTime>,
    /// Stamped events, in stamping order (not necessarily time order).
    pub events: Vec<OpEvent>,
}

impl OpSpan {
    /// Indices into [`OpSpan::events`] in time order (stable: stamping
    /// order breaks ties). The export paths iterate through this
    /// instead of cloning and sorting the event vector itself.
    pub fn sorted_idx(&self) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.events.len() as u32).collect();
        idx.sort_by_key(|&i| self.events[i as usize].at);
        idx
    }

    /// Decompose the span into named segment durations (ns).
    ///
    /// Deltas between consecutive time-sorted events are attributed to
    /// the segment the *later* event ends; the values telescope, so
    /// they sum to `end - begin` exactly when the span is complete.
    /// Events stamped after `end` (chain-internal ACKs can trail the
    /// tail's WRITE_IMM) are off the critical path and excluded; they
    /// remain visible in [`OpSpan::events`] and the Chrome trace.
    pub fn segments(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut prev: Option<&OpEvent> = None;
        for i in self.sorted_idx() {
            let e = &self.events[i as usize];
            if self.end.is_some_and(|end| e.at > end) {
                // Sorted by time, so everything from here on trails `end`.
                break;
            }
            if let Some(p) = prev {
                let d = e.at.as_nanos() - p.at.as_nanos();
                let label = e.stage.segment().unwrap_or("other");
                *out.entry(label).or_insert(0) += d;
            }
            prev = Some(e);
        }
        out
    }

    /// End-to-end latency in ns (None while in flight).
    pub fn e2e_ns(&self) -> Option<u64> {
        self.end.map(|e| e.as_nanos() - self.begin.as_nanos())
    }
}

/// An instant annotation on the global timeline (fault injected, link
/// healed, recovery started, …).
#[derive(Debug, Clone)]
pub struct Mark {
    /// When.
    pub at: SimTime,
    /// What (short label).
    pub name: String,
    /// Host it concerns (0 when global).
    pub host: usize,
}

/// One entry in the flight-recorder ring: a completed span or a mark.
#[derive(Debug, Clone)]
pub enum FlightEvent {
    /// A span that completed (recorded at `end_op` time).
    Span(OpSpan),
    /// An instant annotation.
    Mark(Mark),
}

impl FlightEvent {
    /// Time the entry was recorded at.
    pub fn at(&self) -> SimTime {
        match self {
            FlightEvent::Span(s) => s.end.unwrap_or(s.begin),
            FlightEvent::Mark(m) => m.at,
        }
    }
}

/// A snapshot taken by [`Telemetry::flight_dump`]: the recent-history
/// ring plus every span still in flight at dump time — the sim
/// equivalent of a black-box recorder read-out after an incident.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// When the dump was taken.
    pub at: SimTime,
    /// Why (e.g. `fault:link-down`, `cqe:error`, `probe:nic-stall`).
    pub reason: String,
    /// The last-N completed spans and marks, oldest first.
    pub recent: Vec<FlightEvent>,
    /// Spans open (issued, not completed) at dump time, op-id order.
    pub open_spans: Vec<OpSpan>,
}

impl FlightDump {
    /// Does the dump mention op `id` (open or recently completed)?
    pub fn contains_op(&self, id: u32) -> bool {
        self.open_spans.iter().any(|s| s.id == id)
            || self
                .recent
                .iter()
                .any(|e| matches!(e, FlightEvent::Span(s) if s.id == id))
    }

    /// Deterministic text rendering for postmortem artifacts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "flight dump @{}ns reason={} open={} recent={}\n",
            self.at.as_nanos(),
            self.reason,
            self.open_spans.len(),
            self.recent.len()
        );
        for s in &self.open_spans {
            out.push_str(&format!(
                "  open op {} {} begin={}ns events={}\n",
                s.id,
                s.kind.label(),
                s.begin.as_nanos(),
                s.events.len()
            ));
        }
        for e in &self.recent {
            match e {
                FlightEvent::Span(s) => out.push_str(&format!(
                    "  span op {} {} [{}..{}]ns e2e={}ns\n",
                    s.id,
                    s.kind.label(),
                    s.begin.as_nanos(),
                    s.end.map(|e| e.as_nanos()).unwrap_or(0),
                    s.e2e_ns().unwrap_or(0)
                )),
                FlightEvent::Mark(m) => out.push_str(&format!(
                    "  mark @{}ns {} host={}\n",
                    m.at.as_nanos(),
                    m.name,
                    m.host
                )),
            }
        }
        out
    }
}

/// Ring buffer of the last N completed spans and marks, plus the dumps
/// taken from it. Fed automatically by [`Telemetry::end_op`] /
/// [`Telemetry::mark`] while telemetry is enabled; dumped by
/// [`Telemetry::flight_dump`] on invariant failures, error CQEs and
/// chaos faults.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    max_dumps: usize,
    ring: VecDeque<FlightEvent>,
    dumps: Vec<FlightDump>,
    requested: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder {
            cap: 64,
            max_dumps: 8,
            ring: VecDeque::new(),
            dumps: Vec::new(),
            requested: 0,
        }
    }
}

impl FlightRecorder {
    /// Resize the history ring (drops oldest entries if shrinking).
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        while self.ring.len() > cap {
            self.ring.pop_front();
        }
    }

    /// Cap the number of *stored* dumps (later triggers still count in
    /// [`FlightRecorder::requested`] but keep no snapshot).
    pub fn set_max_dumps(&mut self, n: usize) {
        self.max_dumps = n;
    }

    fn push(&mut self, e: FlightEvent) {
        if self.cap == 0 {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(e);
    }

    /// Stored dumps, oldest first.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Total dump triggers seen (including ones past the storage cap).
    pub fn requested(&self) -> u64 {
        self.requested
    }
}

/// Labelled metrics registry: counters, gauges and histograms keyed by
/// `(name, labels)`. Both maps and label strings are ordered, so
/// iteration and [`Metrics::render`] are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<(String, String), u64>,
    gauges: BTreeMap<(String, String), f64>,
    histograms: BTreeMap<(String, String), Histogram>,
}

impl Metrics {
    /// Add `delta` to counter `name{labels}`.
    pub fn counter_add(&mut self, name: &str, labels: &str, delta: u64) {
        *self
            .counters
            .entry((name.to_string(), labels.to_string()))
            .or_insert(0) += delta;
    }

    /// Set counter `name{labels}` to an absolute value (for snapshots
    /// of monotonic sources: re-collecting overwrites, never
    /// double-counts).
    pub fn counter_set(&mut self, name: &str, labels: &str, v: u64) {
        self.counters
            .insert((name.to_string(), labels.to_string()), v);
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str, labels: &str) -> u64 {
        self.counters
            .get(&(name.to_string(), labels.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Set gauge `name{labels}` to `v`.
    pub fn gauge_set(&mut self, name: &str, labels: &str, v: f64) {
        self.gauges
            .insert((name.to_string(), labels.to_string()), v);
    }

    /// Read a gauge (0.0 if absent).
    pub fn gauge(&self, name: &str, labels: &str) -> f64 {
        self.gauges
            .get(&(name.to_string(), labels.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Record `v` into histogram `name{labels}`.
    pub fn histogram_record(&mut self, name: &str, labels: &str, v: u64) {
        self.histograms
            .entry((name.to_string(), labels.to_string()))
            .or_default()
            .record(v);
    }

    /// Replace histogram `name{labels}` with a snapshot, for sources
    /// that accumulate since boot.
    pub fn histogram_set(&mut self, name: &str, labels: &str, h: Histogram) {
        self.histograms
            .insert((name.to_string(), labels.to_string()), h);
    }

    /// Look up a histogram.
    pub fn histogram(&self, name: &str, labels: &str) -> Option<&Histogram> {
        self.histograms.get(&(name.to_string(), labels.to_string()))
    }

    /// Iterate counters in `(name, labels)` order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counters
            .iter()
            .map(|((n, l), v)| (n.as_str(), l.as_str(), *v))
    }

    /// Iterate gauges in `(name, labels)` order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.gauges
            .iter()
            .map(|((n, l), v)| (n.as_str(), l.as_str(), *v))
    }

    /// Deterministic text dump (one line per metric, name order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((n, l), v) in &self.counters {
            out.push_str(&format!("counter {n}{{{l}}} {v}\n"));
        }
        for ((n, l), v) in &self.gauges {
            out.push_str(&format!("gauge {n}{{{l}}} {v:.3}\n"));
        }
        for ((n, l), h) in &self.histograms {
            out.push_str(&format!(
                "histogram {n}{{{l}}} n={} p50={} p99={} max={}\n",
                h.count(),
                h.p50(),
                h.p99(),
                h.max()
            ));
        }
        out
    }

    /// Valid Prometheus text exposition (format 0.0.4).
    ///
    /// The internal free-form `k=v,k2=v2` label strings become quoted
    /// `{k="v",k2="v2"}` label sets, metric/label names are sanitized to
    /// the Prometheus charset, each family gets a `# TYPE` line, and
    /// histograms are exported as summaries (quantile samples plus
    /// `_sum`/`_count`). [`Metrics::render`] keeps the legacy free-form
    /// layout for the byte-identity tests that pin it.
    pub fn render_prom(&self) -> String {
        let mut out = String::new();
        let mut last: Option<String> = None;
        for ((n, l), v) in &self.counters {
            let name = prom_name(n);
            if last.as_deref() != Some(name.as_str()) {
                out.push_str(&format!("# TYPE {name} counter\n"));
                last = Some(name.clone());
            }
            out.push_str(&format!("{name}{} {v}\n", prom_labels(l, None)));
        }
        last = None;
        for ((n, l), v) in &self.gauges {
            let name = prom_name(n);
            if last.as_deref() != Some(name.as_str()) {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                last = Some(name.clone());
            }
            out.push_str(&format!("{name}{} {v}\n", prom_labels(l, None)));
        }
        last = None;
        for ((n, l), h) in &self.histograms {
            let name = prom_name(n);
            if last.as_deref() != Some(name.as_str()) {
                out.push_str(&format!("# TYPE {name} summary\n"));
                last = Some(name.clone());
            }
            for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                out.push_str(&format!(
                    "{name}{} {v}\n",
                    prom_labels(l, Some(&format!("quantile=\"{q}\"")))
                ));
            }
            out.push_str(&format!("{name}_sum{} {}\n", prom_labels(l, None), h.sum()));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                prom_labels(l, None),
                h.count()
            ));
        }
        out
    }
}

/// Sanitize a metric name to the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prom_name(n: &str) -> String {
    let mut out: String = n
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Sanitize a label name to `[a-zA-Z_][a-zA-Z0-9_]*`.
fn prom_label_name(n: &str) -> String {
    let mut out: String = n
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escape a label value per the exposition format.
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Convert an internal `k=v,k2=v2` label string (plus an optional
/// pre-formatted extra pair) into a `{k="v",...}` label set. Empty
/// input with no extra yields an empty string (no braces).
fn prom_labels(l: &str, extra: Option<&str>) -> String {
    let mut pairs: Vec<String> = Vec::new();
    for part in l.split(',') {
        if part.is_empty() {
            continue;
        }
        let (k, v) = part.split_once('=').unwrap_or((part, ""));
        pairs.push(format!(
            "{}=\"{}\"",
            prom_label_name(k),
            prom_label_value(v)
        ));
    }
    if let Some(e) = extra {
        pairs.push(e.to_string());
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Promtool-style syntax check for Prometheus text exposition, strict
/// enough to catch exporter bugs: every sample must parse (name, label
/// set, float value), every sample's family must have a preceding
/// `# TYPE` declaration (stricter than promtool, which allows untyped),
/// `_sum`/`_count`/`_bucket` suffixes must match a summary/histogram
/// family, and no family may be declared twice. Returns the number of
/// samples on success.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {ln}: TYPE missing name"))?;
                let ty = it
                    .next()
                    .ok_or_else(|| format!("line {ln}: TYPE missing type"))?;
                if it.next().is_some() {
                    return Err(format!("line {ln}: TYPE has trailing tokens"));
                }
                if !valid_name(name, true) {
                    return Err(format!("line {ln}: invalid metric name {name:?}"));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {ln}: invalid type {ty:?}"));
                }
                if types.insert(name.to_string(), ty.to_string()).is_some() {
                    return Err(format!("line {ln}: duplicate TYPE for {name}"));
                }
            }
            // HELP and free comments pass through.
            continue;
        }
        // Sample: name[{labels}] value
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_name(name, true) {
            return Err(format!("line {ln}: invalid sample name {name:?}"));
        }
        let mut rest = &line[name_end..];
        if let Some(inner) = rest.strip_prefix('{') {
            let close = find_brace_close(inner)
                .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
            validate_labels(&inner[..close]).map_err(|e| format!("line {ln}: {e}"))?;
            rest = &inner[close + 1..];
        }
        let value = rest.trim();
        if value.is_empty() {
            return Err(format!("line {ln}: missing value"));
        }
        let ok_value = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !ok_value {
            return Err(format!("line {ln}: unparseable value {value:?}"));
        }
        // Family check: the sample name, or base_sum/base_count (summary,
        // histogram) / base_bucket (histogram), must be declared.
        let declared = types.contains_key(name)
            || [
                ("_sum", &["summary", "histogram"][..]),
                ("_count", &["summary", "histogram"][..]),
                ("_bucket", &["histogram"][..]),
            ]
            .iter()
            .any(|(suf, tys)| {
                name.strip_suffix(suf)
                    .is_some_and(|base| types.get(base).is_some_and(|t| tys.contains(&t.as_str())))
            });
        if !declared {
            return Err(format!("line {ln}: sample {name} has no TYPE declaration"));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Metric (`colons = true`) or label (`colons = false`) name check.
fn valid_name(n: &str, colons: bool) -> bool {
    let mut chars = n.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let head_ok = first.is_ascii_alphabetic() || first == '_' || (colons && first == ':');
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (colons && c == ':'))
}

/// Index of the closing `}` of a label set, honoring quoted values.
fn find_brace_close(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Validate the inside of a `{...}` label set: `name="value"` pairs,
/// comma-separated, values with `\\`/`\"`/`\n` escapes only.
fn validate_labels(s: &str) -> Result<(), String> {
    let mut rest = s;
    loop {
        if rest.is_empty() {
            return Ok(());
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair missing '=' in {rest:?}"))?;
        let name = &rest[..eq];
        if !valid_name(name, false) {
            return Err(format!("invalid label name {name:?}"));
        }
        rest = &rest[eq + 1..];
        let inner = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("label value not quoted after {name}"))?;
        // Scan to the closing quote, honoring escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in inner.char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("bad escape \\{c} in label {name}"));
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("unterminated value for label {name}"))?;
        rest = &inner[end + 1..];
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => return Ok(()),
            None => return Err(format!("junk after label {name}: {rest:?}")),
        }
    }
}

/// One segment's contribution to a kind's latency profile.
#[derive(Debug, Clone)]
pub struct SegmentStat {
    /// Segment name (see [`Stage::segment`]).
    pub label: &'static str,
    /// Per-op time spent in this segment (ns values).
    pub hist: Histogram,
    /// Total ns across all ops (ranking key).
    pub total_ns: u64,
    /// Segment mean as a share of the end-to-end mean.
    pub share_mean: f64,
    /// Segment p50 over end-to-end p50.
    pub share_p50: f64,
    /// Segment p99 over end-to-end p99.
    pub share_p99: f64,
}

/// Latency breakdown for one op kind.
#[derive(Debug, Clone)]
pub struct KindBreakdown {
    /// The op kind.
    pub kind: OpKind,
    /// Completed ops of this kind.
    pub ops: u64,
    /// End-to-end latency histogram (ns).
    pub e2e: Histogram,
    /// Segments, ranked by `total_ns` descending (then by name).
    pub segments: Vec<SegmentStat>,
}

impl KindBreakdown {
    /// Total ns this kind spent in `label` (0 if the segment never ran).
    pub fn segment_ns(&self, label: &str) -> u64 {
        self.segments
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.total_ns)
            .unwrap_or(0)
    }
}

/// The full attribution report (see [`Telemetry::attribution`]).
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Per-kind breakdowns, in kind order.
    pub kinds: Vec<KindBreakdown>,
}

impl Attribution {
    /// Look up one kind's breakdown.
    pub fn kind(&self, k: OpKind) -> Option<&KindBreakdown> {
        self.kinds.iter().find(|b| b.kind == k)
    }
}

impl std::fmt::Display for Attribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.kinds {
            writeln!(
                f,
                "{}: n={} e2e p50={}ns p99={}ns",
                b.kind.label(),
                b.ops,
                b.e2e.p50(),
                b.e2e.p99()
            )?;
            for s in &b.segments {
                writeln!(
                    f,
                    "  {:<12} p50={:>8}ns p99={:>8}ns share(mean)={:>5.1}% share(p99)={:>5.1}%",
                    s.label,
                    s.hist.p50(),
                    s.hist.p99(),
                    100.0 * s.share_mean,
                    100.0 * s.share_p99,
                )?;
            }
        }
        Ok(())
    }
}

/// The telemetry hub owned by the cluster (`World.telemetry`).
///
/// Disabled by default: every stamping entry point is a cheap branch
/// when off, and op id 0 means "untracked" throughout the stack.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    next_op: u32,
    spans: BTreeMap<u32, OpSpan>,
    marks: Vec<Mark>,
    /// The labelled metrics registry.
    pub metrics: Metrics,
    /// Windowed time-series store (off unless
    /// [`Telemetry::enable_timeseries`] is called).
    pub series: TimeSeries,
    /// Flight recorder fed by `end_op`/`mark` while enabled.
    pub flight: FlightRecorder,
}

impl Telemetry {
    /// Turn span collection on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turn on span collection *and* windowed time-series collection
    /// with the given window width.
    pub fn enable_timeseries(&mut self, window: SimDuration) {
        self.enable();
        self.series.enable(window);
    }

    /// Is span collection on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; returns its op id (0 when telemetry is disabled).
    pub fn begin_op(&mut self, at: SimTime, kind: OpKind, host: usize) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.next_op += 1;
        let id = self.next_op;
        self.spans.insert(
            id,
            OpSpan {
                id,
                kind,
                begin: at,
                end: None,
                events: vec![OpEvent {
                    at,
                    stage: Stage::OpBegin,
                    host,
                    detail: 0,
                }],
            },
        );
        id
    }

    /// Stamp a stage onto op `op`. No-op for id 0 or unknown ids.
    pub fn stage(&mut self, at: SimTime, op: u32, stage: Stage, host: usize, detail: u32) {
        if op == 0 {
            return;
        }
        if let Some(s) = self.spans.get_mut(&op) {
            s.events.push(OpEvent {
                at,
                stage,
                host,
                detail,
            });
        }
    }

    /// Close op `op` (records the `OpEnd` stage too). The completed
    /// span is also pushed into the flight-recorder ring.
    pub fn end_op(&mut self, at: SimTime, op: u32, host: usize) {
        if op == 0 {
            return;
        }
        if let Some(s) = self.spans.get_mut(&op) {
            s.events.push(OpEvent {
                at,
                stage: Stage::OpEnd,
                host,
                detail: 0,
            });
            s.end = Some(at);
            let done = s.clone();
            self.flight.push(FlightEvent::Span(done));
        }
    }

    /// Record an instant annotation (fault injected, recovery, …).
    pub fn mark(&mut self, at: SimTime, name: impl Into<String>, host: usize) {
        if !self.enabled {
            return;
        }
        let m = Mark {
            at,
            name: name.into(),
            host,
        };
        self.flight.push(FlightEvent::Mark(m.clone()));
        self.marks.push(m);
    }

    /// Take a flight-recorder dump: snapshot the recent-history ring and
    /// every span still open at `at`. Called automatically on error CQEs
    /// and chaos-fault injection; call it directly on invariant
    /// failures. Each trigger bumps the `flight_dumps` counter; at most
    /// [`FlightRecorder::set_max_dumps`] snapshots are stored.
    pub fn flight_dump(&mut self, at: SimTime, reason: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.flight.requested += 1;
        self.metrics.counter_add("flight_dumps", "", 1);
        if self.flight.dumps.len() >= self.flight.max_dumps {
            return;
        }
        let mut open: Vec<OpSpan> = self
            .spans
            .values()
            .filter(|s| s.end.is_none())
            .cloned()
            .collect();
        // BTreeMap order = op-id order; cap so a saturated pipeline
        // doesn't make dumps unboundedly large.
        open.truncate(64);
        let dump = FlightDump {
            at,
            reason: reason.into(),
            recent: self.flight.ring.iter().cloned().collect(),
            open_spans: open,
        };
        self.flight.dumps.push(dump);
    }

    /// JSON snapshot of the time-series store with this run's marks
    /// attached (see [`TimeSeries::to_json`]).
    pub fn timeseries_json(&self) -> String {
        self.series.to_json(&self.marks)
    }

    /// CSV snapshot of the time-series store ([`TimeSeries::to_csv`]).
    pub fn timeseries_csv(&self) -> String {
        self.series.to_csv()
    }

    /// ASCII timeline of sketch metric `metric` with this run's marks
    /// overlaid (see [`TimeSeries::render_timeline`]).
    pub fn timeline(&self, metric: &str) -> String {
        self.series.render_timeline(&self.marks, metric)
    }

    /// Record a named state-machine transition: an instant mark
    /// (`transition:{what}:{from}->{to}`) plus a labelled counter
    /// (`state_transitions{what=…,to=…}`), so campaigns can count
    /// degrade / re-promote / rejoin edges without parsing mark names.
    /// Like [`Telemetry::mark`], a no-op while telemetry is disabled.
    pub fn transition(&mut self, at: SimTime, what: &str, from: &str, to: &str, host: usize) {
        if !self.enabled {
            return;
        }
        self.mark(at, format!("transition:{what}:{from}->{to}"), host);
        self.metrics
            .counter_add("state_transitions", &format!("what={what},to={to}"), 1);
    }

    /// All spans, by op id.
    pub fn spans(&self) -> impl Iterator<Item = &OpSpan> {
        self.spans.values()
    }

    /// One span.
    pub fn span(&self, op: u32) -> Option<&OpSpan> {
        self.spans.get(&op)
    }

    /// Recorded instant marks, in stamping order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Build the per-hop latency attribution report over all *completed*
    /// spans. Segments are ranked by total time descending, i.e. by how
    /// much of the kind's aggregate latency they explain.
    pub fn attribution(&self) -> Attribution {
        // kind -> (e2e hist, ops, label -> (hist, total))
        type PerKind = (Histogram, u64, BTreeMap<&'static str, (Histogram, u64)>);
        let mut by_kind: BTreeMap<OpKind, PerKind> = BTreeMap::new();
        for s in self.spans.values() {
            let Some(e2e) = s.e2e_ns() else { continue };
            let entry = by_kind
                .entry(s.kind)
                .or_insert_with(|| (Histogram::new(), 0, BTreeMap::new()));
            entry.0.record(e2e);
            entry.1 += 1;
            for (label, ns) in s.segments() {
                let seg = entry
                    .2
                    .entry(label)
                    .or_insert_with(|| (Histogram::new(), 0));
                seg.0.record(ns);
                seg.1 += ns;
            }
        }
        let mut kinds = Vec::new();
        for (kind, (e2e, ops, segs)) in by_kind {
            let e2e_mean = e2e.mean().max(1.0);
            let e2e_p50 = e2e.p50().max(1) as f64;
            let e2e_p99 = e2e.p99().max(1) as f64;
            let mut segments: Vec<SegmentStat> = segs
                .into_iter()
                .map(|(label, (hist, total_ns))| SegmentStat {
                    label,
                    share_mean: hist.mean() / e2e_mean,
                    share_p50: hist.p50() as f64 / e2e_p50,
                    share_p99: hist.p99() as f64 / e2e_p99,
                    hist,
                    total_ns,
                })
                .collect();
            segments.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(b.label)));
            kinds.push(KindBreakdown {
                kind,
                ops,
                e2e,
                segments,
            });
        }
        Attribution { kinds }
    }

    /// Export everything as Chrome trace-event JSON (Perfetto-loadable).
    ///
    /// Serialization is hand-rolled with a fixed field order and
    /// integer-derived microsecond timestamps, so the same sim run
    /// always produces byte-identical output. Layout: one process per
    /// host, one thread per op id; each hop segment is a complete
    /// (`"X"`) event on the host where it ended, and marks are instant
    /// (`"i"`) events.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        let mut max_host = 0usize;
        for s in self.spans.values() {
            for e in &s.events {
                max_host = max_host.max(e.host);
            }
        }
        for m in &self.marks {
            max_host = max_host.max(m.host);
        }
        for h in 0..=max_host {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{h},\"tid\":0,\
                 \"args\":{{\"name\":\"host{h}\"}}}}"
            ));
        }
        for s in self.spans.values() {
            // Sort indices, not events: spans can hold thousands of
            // stamped events and export runs per span, so cloning the
            // event vector here was the hottest allocation in the
            // exporter.
            let idx = s.sorted_idx();
            let end_ns = s.end.map(|e| e.as_nanos());
            if let Some(end_ns) = end_ns {
                // Whole-op span on the issuing host.
                let begin_ns = s.begin.as_nanos();
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"op\":{}}}}}",
                    s.kind.label(),
                    ts_us(begin_ns),
                    ts_us(end_ns - begin_ns),
                    idx.first().map(|&i| s.events[i as usize].host).unwrap_or(0),
                    s.id,
                    s.id
                ));
            }
            for pair in idx.windows(2) {
                let (a, b) = (&s.events[pair[0] as usize], &s.events[pair[1] as usize]);
                let Some(label) = b.stage.segment() else {
                    continue;
                };
                let start = a.at.as_nanos();
                let dur = b.at.as_nanos() - start;
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"op\":{},\"detail\":{}}}}}",
                    label,
                    s.kind.label(),
                    ts_us(start),
                    ts_us(dur),
                    b.host,
                    s.id,
                    s.id,
                    b.detail
                ));
            }
        }
        for m in &self.marks {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"mark\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\
                 \"tid\":0,\"s\":\"g\"}}",
                m.name,
                ts_us(m.at.as_nanos()),
                m.host
            ));
        }
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&events.join(","));
        out.push_str("]}");
        out
    }
}

/// Nanoseconds rendered as a decimal microsecond timestamp without ever
/// constructing a float (keeps the export bit-stable everywhere).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_telemetry_allocates_no_ops() {
        let mut tel = Telemetry::default();
        assert_eq!(tel.begin_op(t(0), OpKind::GWrite, 0), 0);
        tel.stage(t(5), 0, Stage::TxWire, 0, 0);
        tel.end_op(t(9), 0, 0);
        assert_eq!(tel.spans().count(), 0);
    }

    #[test]
    fn segments_telescope_to_e2e() {
        let mut tel = Telemetry::default();
        tel.enable();
        let op = tel.begin_op(t(100), OpKind::GWrite, 0);
        assert_eq!(op, 1);
        // Stamp out of order: sorting must still telescope.
        tel.stage(t(400), op, Stage::RxWire, 1, 0);
        tel.stage(t(150), op, Stage::ClientPost, 0, 3);
        tel.stage(t(300), op, Stage::TxWire, 0, 3);
        tel.end_op(t(1000), op, 0);
        let s = tel.span(op).unwrap();
        let segs = s.segments();
        let total: u64 = segs.values().sum();
        assert_eq!(total, s.e2e_ns().unwrap());
        assert_eq!(segs["client-post"], 50);
        assert_eq!(segs["wqe-exec"], 150);
        assert_eq!(segs["wire"], 100);
        assert_eq!(segs["ack-deliver"], 600);
    }

    #[test]
    fn late_events_do_not_break_telescoping() {
        let mut tel = Telemetry::default();
        tel.enable();
        let op = tel.begin_op(t(0), OpKind::GWrite, 0);
        tel.stage(t(100), op, Stage::TxWire, 0, 0);
        tel.end_op(t(500), op, 0);
        // A chain-internal ACK trailing the client-visible completion.
        tel.stage(t(700), op, Stage::RxWire, 1, 0);
        let s = tel.span(op).unwrap();
        let total: u64 = s.segments().values().sum();
        assert_eq!(total, s.e2e_ns().unwrap());
        // The raw event list still holds the late arrival.
        assert_eq!(s.events.len(), 4);
    }

    #[test]
    fn attribution_ranks_by_total() {
        let mut tel = Telemetry::default();
        tel.enable();
        for _ in 0..10 {
            let op = tel.begin_op(t(0), OpKind::NaiveWrite, 0);
            tel.stage(t(10), op, Stage::ClientPost, 0, 0);
            tel.stage(t(20), op, Stage::CpuWake, 1, 0);
            tel.stage(t(920), op, Stage::CpuDone, 1, 0);
            tel.end_op(t(1000), op, 0);
        }
        let a = tel.attribution();
        let b = a.kind(OpKind::NaiveWrite).unwrap();
        assert_eq!(b.ops, 10);
        assert_eq!(b.segments[0].label, "replica-cpu");
        assert!(b.segments[0].share_mean > 0.8);
        assert_eq!(b.segment_ns("replica-cpu"), 9000);
    }

    #[test]
    fn chrome_trace_shape_and_determinism() {
        let build = || {
            let mut tel = Telemetry::default();
            tel.enable();
            let op = tel.begin_op(t(1500), OpKind::GCas, 0);
            tel.stage(t(2000), op, Stage::TxWire, 0, 7);
            tel.end_op(t(3001), op, 0);
            tel.mark(t(2500), "fault:drop", 1);
            tel.chrome_trace()
        };
        let j1 = build();
        let j2 = build();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"traceEvents\":["));
        assert!(j1.ends_with("]}"));
        assert!(j1.contains("\"ph\":\"X\""));
        assert!(j1.contains("\"ph\":\"M\""));
        assert!(j1.contains("\"ph\":\"i\""));
        assert!(j1.contains("\"ts\":1.500"));
        assert!(j1.contains("\"name\":\"gCAS\""));
        // No floats were involved: fractional digits are exact.
        assert!(j1.contains("\"dur\":1.501"));
    }

    #[test]
    fn metrics_registry_is_name_ordered() {
        let mut m = Metrics::default();
        m.counter_add("z.last", "host=0", 1);
        m.counter_add("a.first", "host=1", 2);
        m.counter_add("a.first", "host=0", 3);
        m.gauge_set("occ", "qp=4", 0.5);
        m.histogram_record("lat", "host=0", 100);
        let names: Vec<_> = m.counters().map(|(n, l, _)| format!("{n}|{l}")).collect();
        assert_eq!(names, ["a.first|host=0", "a.first|host=1", "z.last|host=0"]);
        assert_eq!(m.counter("a.first", "host=0"), 3);
        assert_eq!(m.counter_total("a.first"), 5);
        assert_eq!(m.gauge("occ", "qp=4"), 0.5);
        assert_eq!(m.histogram("lat", "host=0").unwrap().count(), 1);
        let r = m.render();
        assert!(r.contains("counter a.first{host=0} 3"));
        assert!(r.contains("histogram lat{host=0} n=1"));
    }

    #[test]
    fn render_prom_is_valid_exposition() {
        let mut m = Metrics::default();
        m.counter_add("ops_total", "shard=1,backend=hyper", 42);
        m.counter_add("ops_total", "shard=2,backend=hyper", 7);
        m.gauge_set("health_score", "layer=health", 3.0);
        m.gauge_set("occupancy", "", 0.5);
        m.histogram_record("op_latency_ns", "prim=gWRITE-ring", 150_000);
        m.histogram_record("op_latency_ns", "prim=gWRITE-ring", 90_000);
        let prom = m.render_prom();
        let n = validate_exposition(&prom).expect("render_prom must validate");
        // 2 counters + 2 gauges + (3 quantiles + sum + count).
        assert_eq!(n, 9);
        assert!(prom.contains("# TYPE ops_total counter\n"));
        assert!(prom.contains("ops_total{shard=\"1\",backend=\"hyper\"} 42\n"));
        assert!(prom.contains("health_score{layer=\"health\"} 3\n"));
        assert!(prom.contains("occupancy 0.5\n"));
        // Dashes in label values survive; the quantile label is appended.
        assert!(prom.contains("op_latency_ns{prim=\"gWRITE-ring\",quantile=\"0.5\"}"));
        assert!(prom.contains("op_latency_ns_sum{prim=\"gWRITE-ring\"} 240000\n"));
        assert!(prom.contains("op_latency_ns_count{prim=\"gWRITE-ring\"} 2\n"));
        // Legacy render is untouched.
        assert!(m
            .render()
            .contains("counter ops_total{shard=1,backend=hyper} 42"));
    }

    #[test]
    fn validator_rejects_malformed_exposition() {
        assert!(validate_exposition("# TYPE a counter\na 1\n").is_ok());
        // Sample without a TYPE declaration.
        assert!(validate_exposition("orphan 1\n").is_err());
        // Duplicate TYPE.
        assert!(validate_exposition("# TYPE a counter\n# TYPE a gauge\na 1\n").is_err());
        // Unquoted label value (the old render() format).
        assert!(validate_exposition("# TYPE a counter\na{layer=health} 3\n").is_err());
        // Bad value.
        assert!(validate_exposition("# TYPE a counter\na nope\n").is_err());
        // Unterminated label set.
        assert!(validate_exposition("# TYPE a counter\na{x=\"1\" 3\n").is_err());
        // _sum/_count ride a summary family; _bucket needs histogram.
        assert!(validate_exposition("# TYPE s summary\ns_sum 4\ns_count 2\n").is_ok());
        assert!(validate_exposition("# TYPE s summary\ns_bucket 4\n").is_err());
        // Inf/NaN values are legal.
        assert!(validate_exposition("# TYPE g gauge\ng +Inf\n").is_ok());
    }

    #[test]
    fn flight_recorder_rings_and_dumps() {
        let mut tel = Telemetry::default();
        tel.enable();
        tel.flight.set_capacity(4);
        // 6 completed ops: ring keeps the last 4.
        for i in 0..6u64 {
            let op = tel.begin_op(t(i * 100), OpKind::GWrite, 0);
            tel.end_op(t(i * 100 + 50), op, 0);
        }
        // One op left open — the "victim".
        let victim = tel.begin_op(t(700), OpKind::GCas, 0);
        tel.mark(t(710), "fault:link-down", 1);
        tel.flight_dump(t(720), "fault:link-down");
        let dumps = tel.flight.dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.reason, "fault:link-down");
        assert!(d.contains_op(victim), "open victim span must be captured");
        assert!(!d.contains_op(1), "op 1 rolled off the 4-entry ring");
        assert!(d.contains_op(6));
        assert!(d
            .recent
            .iter()
            .any(|e| matches!(e, FlightEvent::Mark(m) if m.name == "fault:link-down")));
        assert_eq!(tel.metrics.counter("flight_dumps", ""), 1);
        let r = d.render();
        assert!(r.contains("reason=fault:link-down"));
        assert!(r.contains("open op 7 gCAS"));
    }

    #[test]
    fn flight_dump_storage_is_capped_but_counted() {
        let mut tel = Telemetry::default();
        tel.enable();
        tel.flight.set_max_dumps(2);
        for i in 0..5u64 {
            tel.flight_dump(t(i), "invariant");
        }
        assert_eq!(tel.flight.dumps().len(), 2);
        assert_eq!(tel.flight.requested(), 5);
        assert_eq!(tel.metrics.counter("flight_dumps", ""), 5);
    }

    #[test]
    fn disabled_telemetry_takes_no_dumps() {
        let mut tel = Telemetry::default();
        tel.flight_dump(t(0), "nope");
        assert_eq!(tel.flight.dumps().len(), 0);
        assert_eq!(tel.flight.requested(), 0);
        assert_eq!(tel.metrics.counter("flight_dumps", ""), 0);
    }

    #[test]
    fn telemetry_timeseries_roundtrip() {
        let mut tel = Telemetry::default();
        tel.enable_timeseries(crate::SimDuration::from_micros(1000));
        assert!(tel.enabled());
        assert!(tel.series.enabled());
        tel.series
            .record(t(500_000), "op_latency_ns", "shard=0", 120_000);
        tel.mark(t(600_000), "fault:jitter", 0);
        let json = tel.timeseries_json();
        assert!(json.contains("\"name\":\"op_latency_ns\""));
        assert!(json.contains("\"name\":\"fault:jitter\""));
        let tl = tel.timeline("op_latency_ns");
        assert!(tl.contains("== op_latency_ns{shard=0}"));
        assert!(tl.contains("<- fault:jitter"));
        assert!(tel
            .timeseries_csv()
            .contains("histogram,op_latency_ns,shard=0,0,1"));
    }
}
