//! Declarative SLO rules with multi-window burn-rate evaluation.
//!
//! A rule is an objective over the windowed time-series layer
//! ([`hl_sim::TimeSeries`]), written the way an operator would state
//! it:
//!
//! ```text
//! p99(op_latency_ns{layer=supervised}) < 200us over 8 windows
//! ```
//!
//! parsed by [`SloRule::parse`]: quantile, metric + label set, latency
//! threshold, and a *long* lookback of complete windows. Evaluation
//! uses the standard two-window burn-rate construction: the rule fires
//! only when the violation fraction over the long lookback **and** over
//! a short lookback (default `long/4`, so a stale excursion cannot keep
//! an alert pending) both exceed their burn thresholds (default 0.5).
//! It resolves once the short window is violation-free. Only *complete*
//! windows are consulted — the window containing `now` is still
//! accumulating and would under-count.
//!
//! [`SloEngine::eval`] drives every rule against a [`Telemetry`] hub:
//! fire/resolve edges emit `slo:fire:{name}` / `slo:resolve:{name}`
//! marks (so they land in trace exports, timeline renders and the
//! flight recorder) plus an `slo_alerts_fired` counter, and the current
//! short-window burn rate is published as the `slo_burn_rate` gauge.
//! [`crate::health::HealthMonitor`] consumes [`SloEngine::any_firing`]
//! as a structured *sick* input beside its counter-delta score, which
//! is what makes the alert fire strictly before the degrade transition
//! it predicts: the transition needs `degrade_after` consecutive sick
//! evaluations, the first of which already saw the alert up.

use hl_sim::{SimTime, Telemetry};

/// One parsed SLO rule. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Rule name used in marks, counters and gauges.
    pub name: String,
    /// Sketch metric the objective reads.
    pub metric: String,
    /// Label set (internal `k=v,k2=v2` form; empty for all-unlabelled).
    pub labels: String,
    /// Objective quantile in `(0, 1]`.
    pub quantile: f64,
    /// Objective: `quantile(metric) < threshold_ns`.
    pub threshold_ns: u64,
    /// Long lookback, in complete windows.
    pub long_windows: u64,
    /// Short lookback, in complete windows (≤ `long_windows`).
    pub short_windows: u64,
    /// Violation fraction over the long lookback required to fire.
    pub long_burn: f64,
    /// Violation fraction over the short lookback required to fire.
    pub short_burn: f64,
}

impl SloRule {
    /// Parse `"p99(metric{labels}) < 200us over 8 windows"`.
    ///
    /// The quantile token is `p<digits>` with an optional decimal part
    /// (`p99.9`); the threshold unit is one of `ns`/`us`/`ms`/`s`.
    /// Defaults: `short_windows = max(1, long/4)`, both burn thresholds
    /// 0.5. `name` labels the rule in marks and metrics.
    pub fn parse(name: &str, expr: &str) -> Result<SloRule, String> {
        let expr = expr.trim();
        let open = expr
            .find('(')
            .ok_or_else(|| format!("{name}: missing '(' in {expr:?}"))?;
        let quantile = parse_quantile(&expr[..open])?;
        let close = expr[open..]
            .find(')')
            .map(|i| i + open)
            .ok_or_else(|| format!("{name}: missing ')'"))?;
        let target = &expr[open + 1..close];
        let (metric, labels) = match target.find('{') {
            Some(b) => {
                let end = target
                    .rfind('}')
                    .ok_or_else(|| format!("{name}: missing '}}' in {target:?}"))?;
                (&target[..b], &target[b + 1..end])
            }
            None => (target, ""),
        };
        if metric.is_empty() {
            return Err(format!("{name}: empty metric"));
        }
        let rest = expr[close + 1..].trim_start();
        let rest = rest
            .strip_prefix('<')
            .ok_or_else(|| format!("{name}: objective must be '< threshold'"))?
            .trim_start();
        let mut it = rest.split_whitespace();
        let threshold = it
            .next()
            .ok_or_else(|| format!("{name}: missing threshold"))?;
        let threshold_ns = parse_duration_ns(threshold)
            .ok_or_else(|| format!("{name}: bad threshold {threshold:?}"))?;
        match (it.next(), it.next(), it.next()) {
            (Some("over"), Some(n), Some("windows")) => {
                let long_windows: u64 = n
                    .parse()
                    .map_err(|_| format!("{name}: bad window count {n:?}"))?;
                if long_windows == 0 {
                    return Err(format!("{name}: window count must be > 0"));
                }
                if it.next().is_some() {
                    return Err(format!("{name}: trailing tokens"));
                }
                Ok(SloRule {
                    name: name.to_string(),
                    metric: metric.to_string(),
                    labels: labels.to_string(),
                    quantile,
                    threshold_ns,
                    long_windows,
                    short_windows: (long_windows / 4).max(1),
                    long_burn: 0.5,
                    short_burn: 0.5,
                })
            }
            _ => Err(format!("{name}: expected 'over N windows'")),
        }
    }

    /// Override the short lookback.
    pub fn with_short_windows(mut self, n: u64) -> Self {
        self.short_windows = n.clamp(1, self.long_windows);
        self
    }
}

/// `"p99"` → 0.99, `"p99.9"` → 0.999, `"p50"` → 0.5.
fn parse_quantile(tok: &str) -> Result<f64, String> {
    let tok = tok.trim();
    let digits = tok
        .strip_prefix('p')
        .ok_or_else(|| format!("quantile must be pNN, got {tok:?}"))?;
    let v: f64 = digits
        .parse()
        .map_err(|_| format!("bad quantile {tok:?}"))?;
    if v <= 0.0 || v > 100.0 {
        return Err(format!("quantile {tok:?} out of (0, 100]"));
    }
    Ok(v / 100.0)
}

/// `"200us"` → 200_000, `"4ms"` → 4_000_000, bare numbers are ns.
fn parse_duration_ns(tok: &str) -> Option<u64> {
    let (num, mult) = if let Some(n) = tok.strip_suffix("ns") {
        (n, 1)
    } else if let Some(n) = tok.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = tok.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = tok.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        (tok, 1)
    };
    num.parse::<u64>().ok().map(|v| v * mult)
}

/// Per-rule evaluation state.
#[derive(Debug, Clone)]
struct RuleState {
    firing: bool,
    fired: u64,
    resolved: u64,
}

/// Evaluates a set of [`SloRule`]s against the time-series store.
#[derive(Debug, Default)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    state: Vec<RuleState>,
}

impl SloEngine {
    /// An engine with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule.
    pub fn add_rule(&mut self, rule: SloRule) {
        self.rules.push(rule);
        self.state.push(RuleState {
            firing: false,
            fired: 0,
            resolved: 0,
        });
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Is any rule currently firing?
    pub fn any_firing(&self) -> bool {
        self.state.iter().any(|s| s.firing)
    }

    /// Is the named rule currently firing?
    pub fn is_firing(&self, name: &str) -> bool {
        self.rules
            .iter()
            .zip(&self.state)
            .any(|(r, s)| r.name == name && s.firing)
    }

    /// Total fire edges for the named rule.
    pub fn fired(&self, name: &str) -> u64 {
        self.rules
            .iter()
            .zip(&self.state)
            .find(|(r, _)| r.name == name)
            .map(|(_, s)| s.fired)
            .unwrap_or(0)
    }

    /// Evaluate every rule over the complete windows before `now`,
    /// emitting fire/resolve marks and metrics into `tel`. Returns
    /// [`SloEngine::any_firing`] after the pass. No-op (and `false`)
    /// while the time-series layer is disabled.
    pub fn eval(&mut self, now: SimTime, tel: &mut Telemetry) -> bool {
        if !tel.series.enabled() {
            return false;
        }
        let cur = tel.series.window_of(now);
        // Read phase: (burn_short, fire, resolve) per rule, no
        // Telemetry mutation yet.
        let mut decisions: Vec<(f64, bool, bool)> = Vec::with_capacity(self.rules.len());
        for (rule, st) in self.rules.iter().zip(&self.state) {
            let (v_long, s_long) = violations(tel, rule, cur, rule.long_windows);
            let (v_short, s_short) = violations(tel, rule, cur, rule.short_windows);
            let burn_long = if s_long > 0 {
                v_long as f64 / s_long as f64
            } else {
                0.0
            };
            let burn_short = if s_short > 0 {
                v_short as f64 / s_short as f64
            } else {
                0.0
            };
            let fire = !st.firing
                && s_short >= 1
                && burn_short >= rule.short_burn
                && burn_long >= rule.long_burn;
            // Resolve when the short lookback shows no violating window
            // at all — including when it carries no samples: a service
            // receiving no traffic burns no error budget, and a firing
            // alert must not pin the health monitor degraded after the
            // workload drains.
            let resolve = st.firing && v_short == 0;
            decisions.push((burn_short, fire, resolve));
        }
        // Write phase: apply edges and publish gauges.
        for (i, &(burn_short, fire, resolve)) in decisions.iter().enumerate() {
            let name = self.rules[i].name.clone();
            tel.metrics
                .gauge_set("slo_burn_rate", &format!("rule={name}"), burn_short);
            if fire {
                self.state[i].firing = true;
                self.state[i].fired += 1;
                tel.mark(now, format!("slo:fire:{name}"), 0);
                tel.metrics
                    .counter_add("slo_alerts_fired", &format!("rule={name}"), 1);
            } else if resolve {
                self.state[i].firing = false;
                self.state[i].resolved += 1;
                tel.mark(now, format!("slo:resolve:{name}"), 0);
            }
        }
        self.any_firing()
    }
}

/// `(violating, sampled)` complete windows among the last `lookback`
/// before (not including) `cur`. Windows with no samples don't count
/// either way.
fn violations(tel: &Telemetry, rule: &SloRule, cur: u64, lookback: u64) -> (u64, u64) {
    let lo = cur.saturating_sub(lookback);
    let mut violating = 0u64;
    let mut sampled = 0u64;
    for w in lo..cur {
        if let Some(s) = tel.series.sketch_in(&rule.metric, &rule.labels, w) {
            sampled += 1;
            if s.value_at_quantile(rule.quantile) >= rule.threshold_ns {
                violating += 1;
            }
        }
    }
    (violating, sampled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sim::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    const WIN: u64 = 1_000_000; // 1ms windows

    fn tel_with_series() -> Telemetry {
        let mut tel = Telemetry::default();
        tel.enable_timeseries(SimDuration::from_micros(1000));
        tel
    }

    #[test]
    fn parse_full_rule() {
        let r = SloRule::parse(
            "lat",
            "p99(op_latency_ns{layer=supervised}) < 200us over 8 windows",
        )
        .unwrap();
        assert_eq!(r.metric, "op_latency_ns");
        assert_eq!(r.labels, "layer=supervised");
        assert_eq!(r.quantile, 0.99);
        assert_eq!(r.threshold_ns, 200_000);
        assert_eq!(r.long_windows, 8);
        assert_eq!(r.short_windows, 2);
        let r2 = SloRule::parse("s3", "p50(op_latency{shard=3}) < 4ms over 5 windows").unwrap();
        assert_eq!(r2.labels, "shard=3");
        assert_eq!(r2.threshold_ns, 4_000_000);
        assert_eq!(r2.short_windows, 1);
        let r3 = SloRule::parse("t", "p99.9(m) < 1s over 4 windows").unwrap();
        assert!((r3.quantile - 0.999).abs() < 1e-9);
        assert_eq!(r3.threshold_ns, 1_000_000_000);
        assert_eq!(r3.labels, "");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "p99 op_latency < 200us over 8 windows",
            "p99(m) > 200us over 8 windows",
            "p99(m) < 200us",
            "p99(m) < 200us over 0 windows",
            "p99(m) < lots over 8 windows",
            "q99(m) < 200us over 8 windows",
            "p99(m) < 200us over 8 windows extra",
        ] {
            assert!(SloRule::parse("bad", bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn fires_on_sustained_excursion_and_resolves() {
        let mut tel = tel_with_series();
        let mut slo = SloEngine::new();
        slo.add_rule(
            SloRule::parse("lat", "p99(lat) < 200us over 4 windows")
                .unwrap()
                .with_short_windows(2),
        );
        // Windows 0..4: healthy (p99 = 100us).
        for w in 0..4u64 {
            for i in 0..20u64 {
                tel.series.record(t(w * WIN + i), "lat", "", 100_000);
            }
        }
        assert!(!slo.eval(t(4 * WIN), &mut tel));
        // Windows 4..8: excursion (p99 = 900us).
        for w in 4..8u64 {
            for i in 0..20u64 {
                tel.series.record(t(w * WIN + i), "lat", "", 900_000);
            }
        }
        // After window 5 completes: short burn 1.0 (w4, w5 bad), long
        // burn 0.5 (w2..w5: 2 of 4 bad) → fire.
        assert!(slo.eval(t(6 * WIN), &mut tel));
        assert!(slo.is_firing("lat"));
        assert_eq!(slo.fired("lat"), 1);
        assert_eq!(tel.metrics.counter("slo_alerts_fired", "rule=lat"), 1);
        assert!(tel.marks().iter().any(|m| m.name == "slo:fire:lat"));
        // Still firing mid-excursion; no double fire.
        assert!(slo.eval(t(8 * WIN), &mut tel));
        assert_eq!(slo.fired("lat"), 1);
        // Windows 8..10: healed.
        for w in 8..10u64 {
            for i in 0..20u64 {
                tel.series.record(t(w * WIN + i), "lat", "", 90_000);
            }
        }
        assert!(!slo.eval(t(10 * WIN), &mut tel));
        assert!(!slo.is_firing("lat"));
        assert!(tel.marks().iter().any(|m| m.name == "slo:resolve:lat"));
    }

    #[test]
    fn single_window_blip_does_not_fire() {
        let mut tel = tel_with_series();
        let mut slo = SloEngine::new();
        slo.add_rule(
            SloRule::parse("lat", "p99(lat) < 200us over 8 windows")
                .unwrap()
                .with_short_windows(2),
        );
        for w in 0..8u64 {
            let lat = if w == 3 { 900_000 } else { 100_000 };
            for i in 0..20u64 {
                tel.series.record(t(w * WIN + i), "lat", "", lat);
            }
        }
        // One bad window in eight: long burn 1/8, short burn 0 → quiet.
        assert!(!slo.eval(t(8 * WIN), &mut tel));
        assert_eq!(slo.fired("lat"), 0);
    }

    #[test]
    fn current_window_is_not_consulted() {
        let mut tel = tel_with_series();
        let mut slo = SloEngine::new();
        slo.add_rule(SloRule::parse("lat", "p99(lat) < 200us over 2 windows").unwrap());
        // Only the *current* (incomplete) window is bad.
        for i in 0..20u64 {
            tel.series.record(t(i), "lat", "", 900_000);
        }
        assert!(!slo.eval(t(10), &mut tel));
        // Once that window completes, it counts.
        assert!(slo.eval(t(WIN + 10), &mut tel));
    }

    #[test]
    fn disabled_series_is_inert() {
        let mut tel = Telemetry::default();
        tel.enable();
        let mut slo = SloEngine::new();
        slo.add_rule(SloRule::parse("lat", "p99(lat) < 200us over 2 windows").unwrap());
        assert!(!slo.eval(t(5 * WIN), &mut tel));
        assert_eq!(tel.marks().len(), 0);
    }
}
