//! The parent side: spawn one child per round, check that rounds agree,
//! reduce them to medians and print the tables.

use crate::json::{obj, Json};
use crate::metrics::{self, Better, DRIVER_OMITS, END_TO_END, PER_LAYER};
use crate::round::Workload;
use crate::stats::{median, quartiles};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Host time a ladder run takes on the reference box; a traced run
/// leaves that much of its budget for it.
const LADDER_RESERVE: Duration = Duration::from_millis(2500);

/// Where runs leave their artefacts (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The rounds of one workload with tracing off or on.
pub struct Stream {
    pub workload: Workload,
    pub traced: bool,
    pub rounds: Vec<Json>,
}

impl Stream {
    pub fn new(workload: Workload, traced: bool) -> Self {
        Stream {
            workload,
            traced,
            rounds: Vec::new(),
        }
    }
}

/// Run this binary with `args` and parse the last line it prints.
fn spawn_self(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output()` waits for the child, so no process outlives the parent.
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    match Json::parse(last) {
        Ok(v) if out.status.success() => Ok(v),
        _ => Err(format!(
            "child {args:?} failed ({}): {}{}",
            out.status,
            last,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn run_round(s: &Stream, seed: u64, quick: bool) -> Result<Json, String> {
    let mut args = vec![
        "child".to_string(),
        "--workload".into(),
        s.workload.name().into(),
        "--seed".into(),
        seed.to_string(),
        "--trace".into(),
        (s.traced as u8).to_string(),
    ];
    if quick {
        args.push("--quick".into());
    }
    // One trace file per workload is enough: the first traced round's.
    if s.traced && s.rounds.is_empty() {
        let path = out_dir().join(format!("trace_{}.json", s.workload.name()));
        args.push("--trace-out".into());
        args.push(path.to_string_lossy().into_owned());
    }
    spawn_self(&args)
}

/// Run rounds, interleaved across `streams`, until `budget` has passed
/// and every stream has at least `min_rounds`.
pub fn collect(
    streams: &mut [Stream],
    seed: u64,
    quick: bool,
    budget: Duration,
    min_rounds: usize,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        for s in streams.iter_mut() {
            let round = run_round(s, seed, quick)?;
            s.rounds.push(round);
        }
        let enough = streams.iter().all(|s| s.rounds.len() >= min_rounds);
        if enough && start.elapsed() >= budget {
            return Ok(());
        }
    }
}

pub fn run_ladder(quick: bool) -> Result<Json, String> {
    let mut args = vec!["ladder".to_string()];
    if quick {
        args.push("--quick".into());
    }
    spawn_self(&args)
}

/// Median and quartiles of one end-to-end metric over the rounds.
pub struct Stat {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub rounds: Vec<f64>,
}

/// Everything known about one workload after its rounds.
pub struct Summary {
    pub workload: Workload,
    pub untraced_rounds: usize,
    pub traced_rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Stat>,
    /// Present when traced rounds and a ladder were run.
    pub per_layer: Option<Vec<(&'static str, f64)>>,
    /// The sim-clock section all rounds share, as printed.
    pub sim_digest: String,
    /// Measured-window wall and on-CPU seconds of every untraced round.
    pub round_wall_s: Vec<f64>,
    pub round_cpu_s: Vec<f64>,
}

fn section(round: &Json, key: &str) -> String {
    round.get(key).map_or(String::new(), Json::to_string)
}

pub fn summarize(untraced: &Stream, traced: Option<&Stream>, ladder: Option<&Json>) -> Summary {
    let name = untraced.workload.name();
    let no_rounds = Vec::new();
    let traced_rounds = traced.map_or(&no_rounds, |t| &t.rounds);
    let all = || untraced.rounds.iter().chain(traced_rounds);
    let mut problems = Vec::new();

    for (i, r) in all().enumerate() {
        if r.get("correct").and_then(Json::bool) != Some(true) {
            let failed: Vec<&str> = r
                .get("checks")
                .map_or(&[][..], Json::entries)
                .iter()
                .filter(|(_, ok)| ok.bool() != Some(true))
                .map(|(k, _)| k.as_str())
                .collect();
            problems.push(format!("{name} round {i}: failed checks {failed:?}"));
        }
    }
    // Same seed, same bytes: the simulated side of every round, traced
    // or not, must be identical; so must the allocation counts of the
    // untraced rounds.
    let sim_digest = section(&untraced.rounds[0], "sim");
    if let Some(i) = all().position(|r| section(r, "sim") != sim_digest) {
        problems.push(format!(
            "{name} round {i}: sim-clock metrics differ from round 0"
        ));
    }
    let allocs = |r: &Json| {
        let h = r.get("host").expect("host section");
        (h.num_at("allocs"), h.num_at("alloc_bytes"))
    };
    if untraced
        .rounds
        .iter()
        .any(|r| allocs(r) != allocs(&untraced.rounds[0]))
    {
        problems.push(format!(
            "{name}: allocation counts differ between untraced rounds"
        ));
    }

    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            let rounds: Vec<f64> = untraced
                .rounds
                .iter()
                .map(|r| metrics::end_to_end(d.name, r))
                .collect();
            let (q1, q3) = quartiles(&rounds);
            Stat {
                name: d.name,
                unit: d.unit,
                better: d.better,
                bound: d.bound,
                median: median(&rounds),
                q1,
                q3,
                rounds,
            }
        })
        .collect();
    let per_layer = match (traced_rounds.is_empty(), ladder) {
        (false, Some(ladder)) => Some(metrics::per_layer(&untraced.rounds, traced_rounds, ladder)),
        _ => None,
    };
    let total = |key: &str| untraced.rounds.iter().map(|r| r.num_at(key) as u64).sum();
    Summary {
        workload: untraced.workload,
        untraced_rounds: untraced.rounds.len(),
        traced_rounds: traced_rounds.len(),
        attempted: total("attempted"),
        failed: total("failed"),
        problems,
        end_to_end,
        per_layer,
        sim_digest,
        round_wall_s: host_column(&untraced.rounds, "wall_s"),
        round_cpu_s: host_column(&untraced.rounds, "cpu_s"),
    }
}

fn host_column(rounds: &[Json], key: &str) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| r.get("host").map_or(0.0, |h| h.num_at(key)))
        .collect()
}

fn numbers(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::from(x)).collect())
}

impl Summary {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The one line the acceptance driver reads.
    pub fn driver_line(&self, trace: bool) -> Json {
        let metrics: Vec<(String, Json)> = if trace {
            let layers = self
                .per_layer
                .as_ref()
                .expect("traced run has per-layer metrics");
            layers
                .iter()
                .zip(&PER_LAYER)
                .map(|((name, v), d)| (name.to_string(), value_with_unit(*v, d.unit)))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .filter(|s| s.name != DRIVER_OMITS)
                .map(|s| (s.name.to_string(), value_with_unit(s.median, s.unit)))
                .collect()
        };
        obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// This workload's entry in a result file.
    pub fn to_json(&self) -> Json {
        let e2e = self.end_to_end.iter().map(|s| {
            (
                s.name,
                obj([
                    ("median", Json::from(s.median)),
                    ("q1", Json::from(s.q1)),
                    ("q3", Json::from(s.q3)),
                    ("unit", Json::from(s.unit)),
                    ("better", Json::from(s.better.word())),
                    ("bound", Json::from(s.bound)),
                    ("rounds", numbers(&s.rounds)),
                ]),
            )
        });
        let layers = self
            .per_layer
            .iter()
            .flatten()
            .map(|(n, v)| (*n, Json::from(*v)));
        obj([
            ("untraced_rounds", Json::from(self.untraced_rounds as u64)),
            ("traced_rounds", Json::from(self.traced_rounds as u64)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("correct", Json::from(self.correct())),
            ("end_to_end", obj(e2e)),
            ("per_layer", obj(layers)),
            ("round_wall_s", numbers(&self.round_wall_s)),
            ("round_cpu_s", numbers(&self.round_cpu_s)),
            ("sim_digest", Json::Str(self.sim_digest.clone())),
        ])
    }

    /// Human-readable tables, every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "\n== {} == rounds: {} untraced + {} traced; attempted {} failed {}; checks {}",
            self.workload.name(),
            self.untraced_rounds,
            self.traced_rounds,
            self.attempted,
            self.failed,
            if self.correct() { "ok" } else { "FAILED" }
        );
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
        println!(
            "  {:<20} {:>14} {:>14} {:>14}  {:<7} {:<6} {:>5}  paper_ref",
            "end-to-end", "median", "q1", "q3", "unit", "better", "bound"
        );
        for s in &self.end_to_end {
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:>14.4}  {:<7} {:<6} {:>4.0}%  {}",
                s.name,
                s.median,
                s.q1,
                s.q3,
                s.unit,
                s.better.word(),
                s.bound * 100.0,
                paper_ref(self.workload, s.name),
            );
        }
        if let Some(layers) = &self.per_layer {
            println!("  {:<44} {:>16}  unit", "per-layer", "value");
            for ((name, v), d) in layers.iter().zip(&PER_LAYER) {
                println!("  {:<44} {:>16.4}  {}", name, v, d.unit);
            }
        }
    }
}

fn value_with_unit(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// What the paper (via EXPERIMENTS.md) says about a simulated number.
fn paper_ref(w: Workload, metric: &str) -> &'static str {
    match (w, metric) {
        (Workload::GwriteChain, "sim_p50_us" | "sim_p99_us") => {
            "Fig 8: HyperLoop gWRITE ~10-14 us unloaded; 16 outstanding here: unvalidated"
        }
        (Workload::GwriteChain, "sim_kops") => "Fig 9: ~1000 Kops at 1-8 KB (repo fig9: 722)",
        (Workload::NaiveTenants, "sim_p99_us") => {
            "Fig 8/Table 2: Naive p99 ~800x above HyperLoop's (ms scale)"
        }
        (Workload::NaiveTenants, "replica_cpu_cores") => {
            "Fig 9: polling burns a core; event mode: unvalidated"
        }
        (Workload::YcsbADoc, "sim_p50_us" | "sim_p99_us") => {
            "Fig 12: update latency below native MongoDB's; absolute value unvalidated"
        }
        (Workload::ShardedRouter | Workload::LossyChain, m) if m.starts_with("sim_") => {
            "unvalidated (no paper figure)"
        }
        (_, "replica_cpu_cores") => "Fig 9/Table 2: ~0 replica cores (here: ring replenishment)",
        (_, m) if m.starts_with("sim_") => "unvalidated",
        _ => "",
    }
}

/// Driver mode: one workload, `--trace 0` or `--trace 1`.
pub fn run_driver(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Summary, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut streams = vec![Stream::new(w, false)];
    let summary = if trace {
        streams.push(Stream::new(w, true));
        collect(
            &mut streams,
            seed,
            quick,
            budget.saturating_sub(LADDER_RESERVE),
            2,
        )?;
        let ladder = run_ladder(quick)?;
        summarize(&streams[0], Some(&streams[1]), Some(&ladder))
    } else {
        collect(&mut streams, seed, quick, budget, 1)?;
        summarize(&streams[0], None, None)
    };
    Ok(summary)
}

/// `all`: every workload, untraced and traced rounds interleaved, then
/// the ladder once. `seconds` is the budget per workload and mode.
pub fn run_all(seed: u64, seconds: f64, quick: bool) -> Result<Vec<Summary>, String> {
    let mut streams: Vec<Stream> = Workload::ALL
        .into_iter()
        .flat_map(|w| [Stream::new(w, false), Stream::new(w, true)])
        .collect();
    // A quick run is a smoke test: one round of everything.
    let budget = if quick {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(seconds * streams.len() as f64)
    };
    let min_rounds = if quick { 1 } else { 3 };
    collect(&mut streams, seed, quick, budget, min_rounds)?;
    let ladder = run_ladder(quick)?;
    Ok(streams
        .chunks(2)
        .map(|pair| summarize(&pair[0], Some(&pair[1]), Some(&ladder)))
        .collect())
}
