//! hl-benchmark: the repo's two-clock benchmark. See `README.md`.
//!
//! ```text
//! hl-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (acceptance driver)
//! hl-benchmark all [--seed N] [--seconds S] [--quick] [--out F] every workload, every metric
//! hl-benchmark compare A.json B.json                           is B worse than A?
//! ```

use hl_benchmark::json::{obj, Json};
use hl_benchmark::round::{self, RoundCfg, Workload};
use hl_benchmark::{compare, host, ladder, run};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Default seed. Seed 7 is held out: use it only to confirm a finished
/// change, never while developing one.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;

/// `--key value` pairs and bare `--flags` after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("missing --workload")?;
        Workload::from_name(name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name}; one of {known:?}")
        })
    }

    fn trace(&self) -> Result<bool, String> {
        match self.value("--trace").unwrap_or("0") {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("--trace takes 0 or 1, not {other}")),
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), argv[1..].to_vec()),
        _ => ("driver".to_string(), argv),
    };
    let args = Args(rest);
    match dispatch(&cmd, &args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)`: ran, and a check failed or a comparison came out worse.
fn dispatch(cmd: &str, args: &Args, process_start: Instant) -> Result<bool, String> {
    match cmd {
        // Internal: one round / the ladder, in a process of their own.
        "child" => {
            let cfg = RoundCfg {
                workload: args.workload()?,
                seed: args.parsed("--seed", DEFAULT_SEED)?,
                traced: args.trace()?,
                quick: args.flag("--quick"),
                trace_out: args.value("--trace-out").map(Into::into),
            };
            let round = round::run_round(&cfg, process_start);
            println!("{round}");
            Ok(round.get("correct").and_then(Json::bool) == Some(true))
        }
        "ladder" => {
            println!("{}", ladder::run(args.flag("--quick")));
            Ok(true)
        }
        "driver" => {
            let summary = run::run_driver(
                args.workload()?,
                args.parsed("--seed", DEFAULT_SEED)?,
                args.parsed("--seconds", DEFAULT_SECONDS)?,
                args.trace()?,
                args.flag("--quick"),
            )?;
            summary.print();
            println!("{}", summary.driver_line(args.trace()?));
            Ok(summary.correct())
        }
        "all" => {
            let seed = args.parsed("--seed", DEFAULT_SEED)?;
            let seconds = args.parsed("--seconds", DEFAULT_SECONDS)?;
            let quick = args.flag("--quick");
            let header = host::header();
            println!(
                "hl-benchmark all: seed {seed}, {seconds} s per workload and mode, host {header}"
            );
            let summaries = run::run_all(seed, seconds, quick)?;
            for s in &summaries {
                s.print();
            }
            let result = obj([
                ("schema", Json::from("hl-benchmark/1")),
                ("host", header),
                ("seed", Json::from(seed)),
                ("seconds", Json::from(seconds)),
                (
                    "workloads",
                    obj(summaries.iter().map(|s| (s.workload.name(), s.to_json()))),
                ),
            ]);
            let path = match args.value("--out") {
                Some(p) => p.into(),
                None => run::out_dir().join(format!("result_seed{seed}.json")),
            };
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&path, format!("{result}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let ok = summaries.iter().all(run::Summary::correct);
            println!(
                "\nresult file: {}; checks {}",
                path.display(),
                if ok { "ok" } else { "FAILED" }
            );
            Ok(ok)
        }
        "compare" => {
            let [a, b] = &args.0[..] else {
                return Err("usage: compare <a.json> <b.json>".into());
            };
            let read = |p: &String| -> Result<Json, String> {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            };
            compare::compare(&read(a)?, &read(b)?)
        }
        other => Err(format!("unknown command {other}; see benchmark/README.md")),
    }
}
