//! `eid-benchmark` — the repository's benchmark: one named workload
//! per run, measured for a fixed time, its outputs checked, every
//! metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload cli_csv --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and writes the run's spans to
//! `benchmark/out/spans-<workload>-seed<seed>.json`. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A failed output check exits 1 without it.

mod cli_csv;
mod engine_layers;
mod federated;
mod harness;
mod store_classify;

use std::process::ExitCode;

use eid_datagen::{generate, GeneratorConfig};

use harness::{package_dir, Opts, RunResult, END_TO_END, THREADS};

/// Runs one workload: set-up, the timed loop and its output checks.
type Workload = fn(&Opts) -> Result<RunResult, String>;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: &[(&str, Workload)] = &[
    ("cli_csv", cli_csv::run),
    ("store_classify", store_classify::run),
    ("federated_updates", federated::run),
];

/// The generator settings every workload shares: half the entities
/// in both databases, mild homonyms, no noise, 32 specialities over
/// 10 cuisines, and `coverage` of the ILFD family known.
pub fn scaling_workload(n: usize, coverage: f64, seed: u64) -> eid_datagen::Workload {
    generate(&GeneratorConfig {
        n_entities: n,
        overlap: 0.5,
        homonym_rate: 0.1,
        ilfd_coverage: coverage,
        noise: 0.0,
        n_specialities: 32,
        n_cuisines: 10,
        seed,
    })
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("--seed: `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{value}` is not a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds,
            trace,
        },
    })
}

fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is not a finite number: {v}"))
    }
}

/// Prints the header, the metric table, and the result line.
fn report(workload: &str, opts: &Opts, res: &RunResult) -> Result<(), String> {
    let metrics: Vec<(&str, f64, &str)> = if opts.trace {
        res.per_layer.clone()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = *res
                    .end_to_end
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} did not measure {name}"));
                (name, v, unit)
            })
            .collect()
    };
    let mut fields = Vec::new();
    for &(name, v, unit) in &metrics {
        println!("# {name:<38} {v:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(name, v)?
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted,
        res.failed,
        fields.join(", ")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e}\nusage: eid-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            WORKLOADS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join("|")
        )
    })?;
    let (name, workload) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let opts = &args.opts;
    println!(
        "# eid-benchmark workload={name} seed={} seconds={} trace={} threads={THREADS} kernels={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if eid_core::kernels::enabled_default() {
            "on"
        } else {
            "off"
        },
    );
    let res = workload(opts)?;
    for note in &res.notes {
        println!("# {note}");
    }
    if opts.trace {
        let dir = package_dir().join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{name}-seed{}.json", opts.seed));
        std::fs::write(&path, res.tracer.to_json(name, opts.seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans: {}", path.display());
    }
    report(name, opts, &res)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("eid-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
