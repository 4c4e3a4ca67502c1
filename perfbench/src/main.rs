//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-geant|scale-as10k|serve-ingest|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` reports every end-to-end
//! metric, `--trace 1` every per-layer metric from a traced run. The last
//! line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! Other modes:
//! * `--write-manifest` renders `BENCHMARK.json` and `perfbench/LAYERS.md`
//!   from `src/spec.rs`;
//! * `--pin <sweep-geant|scale-as10k|serve>` prints the `pins.txt` lines
//!   of a workload, computed by the program itself;
//! * `--inject-unit-sleep-ms N` / `--inject-batch-sleep-us N` add a fixed
//!   delay per sweep unit / per serve batch inside the benchmark, for the
//!   sensitivity check (`perfbench/tools/sensitivity.py`).

mod batch;
mod host;
mod json;
mod pins;
mod report;
mod serve;
mod spec;
mod trace;

use report::Report;
use spec::Kind;
use std::path::Path;
use std::time::Duration;

/// A measuring run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub unit_sleep: Duration,
    pub batch_sleep: Duration,
}

enum Mode {
    Run(Args),
    WriteManifest,
    Pin(String),
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--inject-unit-sleep-ms N] [--inject-batch-sleep-us N]\n       \
                     perfbench --write-manifest\n       perfbench --pin <sweep-geant|scale-as10k|serve>";

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        unit_sleep: Duration::ZERO,
        batch_sleep: Duration::ZERO,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-manifest" {
            return Ok(Mode::WriteManifest);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--pin" => return Ok(Mode::Pin(value.clone())),
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad value {value}"))?
            }
            "--trace" => args.trace = num()? != 0,
            "--inject-unit-sleep-ms" => args.unit_sleep = Duration::from_millis(num()?),
            "--inject-batch-sleep-us" => args.batch_sleep = Duration::from_micros(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spec::workload(&args.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(Mode::Run(args))
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1)
}

fn measure(args: &Args) -> Result<Report, String> {
    let w = spec::workload(&args.workload).expect("validated");
    let mut report = Report::default();
    let spans = trace::Spans::new();
    match (w.kind, args.trace) {
        (Kind::Batch, false) => batch::run(args, &mut report)?,
        (Kind::Batch, true) => batch::run_traced(args, &mut report, &spans)?,
        (_, false) => serve::run(args, &mut report)?,
        (_, true) => serve::run_traced(args, &mut report, &spans)?,
    }
    if args.trace {
        // A layer this workload never calls did no work: it reports 0.
        for m in spec::LAYERS {
            if report.value(m.name).is_none() {
                report.metric(m.name, 0.0, "not exercised by this workload");
            }
        }
        report
            .metrics
            .retain(|m| spec::layer_spec(m.name).is_some());
        let path = Path::new(".perfbench_out")
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        spans
            .write(&path, host::fingerprint(&args.workload, args.seed, true))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
    } else {
        for m in spec::E2E {
            if report.value(m.name).is_none() {
                report.check(false, format!("{} was not measured", m.name));
            }
        }
        report.metrics.retain(|m| spec::e2e(m.name).is_some());
    }
    Ok(report)
}

fn main() {
    let mode = parse_args().unwrap_or_else(|e| fail(&format!("{e}\n{USAGE}")));
    // Run from the repository root: the benchmark builds and reads the
    // program from there.
    if !Path::new("crates/core/Cargo.toml").exists() || !Path::new("perfbench/Cargo.toml").exists()
    {
        fail("run from the root of a drift-bottle checkout");
    }
    match mode {
        Mode::WriteManifest => {
            let write = |path: &str, text: String| {
                std::fs::write(path, text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
                println!("wrote {path}");
            };
            let text = spec::manifest_text();
            if json::parse(&text).as_ref() != Ok(&spec::manifest()) {
                fail("BENCHMARK.json does not round-trip");
            }
            write("BENCHMARK.json", text);
            write("perfbench/LAYERS.md", spec::layers_markdown());
        }
        Mode::Pin(w) => {
            let r = match w.as_str() {
                "serve" => serve::pin(),
                "sweep-geant" | "scale-as10k" => batch::pin(&w),
                _ => Err(format!("nothing to pin for {w}")),
            };
            r.unwrap_or_else(|e| fail(&e));
        }
        Mode::Run(args) => {
            // Knobs that would change what the program does under test.
            for k in ["DB_THREADS", "DB_SMOKE", "DB_FULL", "DB_TRACE"] {
                std::env::remove_var(k);
            }
            let w = spec::workload(&args.workload).expect("validated");
            println!(
                "perfbench {} seed {} ({} s{}): {}",
                w.name,
                args.seed,
                args.seconds,
                if args.trace { ", traced" } else { "" },
                w.why
            );
            println!(
                "fingerprint: {}",
                json::compact(&host::fingerprint(w.name, args.seed, args.trace))
            );
            let report = measure(&args).unwrap_or_else(|e| fail(&e));
            print!("{}", report.human());
            println!("{}", report.result_line());
        }
    }
}
