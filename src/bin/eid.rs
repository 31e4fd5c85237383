//! `eid` — command-line entity identification.
//!
//! ```text
//! eid match --r R.csv --r-key name,street --s S.csv --s-key name,city \
//!           --rules knowledge.rules --key name,cuisine \
//!           [--integrated] [--unify prefer-r|prefer-s|null] [--negative] \
//!           [--lenient] [--timeout-ms N] [--max-pairs N] [--max-mem-mb N] \
//!           [--no-spill] [--spill-dir DIR] [--keep-spill] \
//!           [--stats] [--report-json PATH] [--trace-out PATH] \
//!           [--emit auto|spilled]
//! eid plan --r R.csv --r-key name,street --s S.csv --s-key name,city \
//!          --rules knowledge.rules --key name,cuisine \
//!          [--json] [--explain] [--analyze] [--threads N] \
//!          [--emit auto|spilled]
//! eid validate --rules knowledge.rules
//! eid demo
//! ```
//!
//! `eid plan` prints the cost-based match plan — chosen blocking
//! keys, probe strategies, serial vs. parallel — without executing
//! anything: an indented text tree by default (`--explain` is an
//! accepted synonym), or the serialized plan with `--json`.
//! `--analyze` *does* execute the plan and joins the planner's
//! estimates with per-node actuals (EXPLAIN ANALYZE).
//!
//! `eid match --trace-out trace.json` writes the run's execution
//! timeline as Chrome `trace_event` JSON — load it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! CSV files carry a header row; `null` cells are NULL. Rule files use
//! the `eid-rules` textual syntax (`speciality = hunan -> cuisine =
//! chinese`, `e1.a = e2.a -> e1 == e2`, `… -> e1 != e2`).
//!
//! ## Exit codes
//!
//! A tripped run budget maps to a distinct exit code (in the spirit
//! of `timeout(1)`'s 124):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 2    | usage / input error |
//! | 65   | corrupt / truncated / incompatible dataset store |
//! | 70   | internal worker panic (degraded reruns exhausted) |
//! | 124  | `--timeout-ms` deadline exceeded |
//! | 125  | `--max-pairs` candidate-pair budget exceeded |
//! | 126  | `--max-mem-mb` pair-list memory budget exceeded |
//! | 130  | run cancelled |

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use entity_id::core::conflict::{unify, ConflictPolicy};
use entity_id::core::error::CoreError;
use entity_id::core::explain::{plan_analyzed_json, render_plan, render_plan_analyzed};
use entity_id::core::integrate::IntegratedTable;
use entity_id::core::matcher::{EntityMatcher, MatchConfig};
use entity_id::core::partition::Partition;
use entity_id::core::plan::EmitHint;
use entity_id::core::runtime::{AbortReason, PartialStats, RunBudget};
use entity_id::core::stats::{counter, label};
use entity_id::core::store::{store_files, Dataset};
use entity_id::datagen::restaurant;
use entity_id::ilfd::closure::minimal_cover;
use entity_id::obs::{MatchReport, Recorder};
use entity_id::relational::csv::{from_csv_inferred, from_csv_inferred_lenient, CsvReject};
use entity_id::relational::display::render_default;
use entity_id::relational::Relation;
use entity_id::rules::{parse_rules, ExtendedKey};

/// With `--features count-alloc`, every allocation the binary makes
/// goes through eid-obs's counting allocator, so match reports carry
/// measured `alloc/*` bytes and the memory budget charges real
/// deltas instead of the 8-bytes-per-pair estimate.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static COUNTING_ALLOC: entity_id::obs::alloc::CountingAlloc = entity_id::obs::alloc::CountingAlloc;

/// A CLI failure: a message plus the process exit code it maps to.
struct CliError {
    msg: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError { msg, code: 2 }
    }
}

/// Maps a tripped budget (or exhausted degradation ladder) to its
/// documented exit code; everything else is a generic input error.
fn cli_error_of(e: CoreError) -> CliError {
    let code = match &e {
        CoreError::Aborted { reason, .. } => match reason {
            AbortReason::DeadlineExceeded { .. } => 124,
            AbortReason::PairBudgetExceeded { .. } => 125,
            AbortReason::MemBudgetExceeded { .. } => 126,
            AbortReason::Cancelled => 130,
        },
        CoreError::WorkerPanic { .. } => 70,
        // EX_DATAERR: the dataset store is corrupt, truncated, or
        // from an incompatible version.
        CoreError::Store { .. } => 65,
        _ => 2,
    };
    CliError {
        msg: e.to_string(),
        code,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("match") => cmd_match(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("encode") => cmd_encode(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]).map_err(CliError::from),
        Some("session") => cmd_session(&args[1..]).map_err(CliError::from),
        Some("demo") => cmd_demo().map_err(CliError::from),
        Some("--help") | Some("-h") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(CliError::from(format!(
            "unknown command `{other}`; try --help"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

fn usage() {
    println!(
        "eid — entity identification in database integration (Lim et al., ICDE 1993)

USAGE:
  eid match --r R.csv --r-key a,b --s S.csv --s-key c,d \\
            --rules FILE --key x,y [--integrated] [--negative] \\
            [--unify prefer-r|prefer-s|null] [--lenient] \\
            [--timeout-ms N] [--max-pairs N] [--max-mem-mb N] \\
            [--no-spill] [--spill-dir DIR] [--keep-spill] \\
            [--stats] [--report-json PATH] [--trace-out PATH]
  eid match --store DIR.eids [same run flags]
  eid plan  --r R.csv --r-key a,b --s S.csv --s-key c,d \\
            --rules FILE --key x,y [--json] [--explain] [--analyze] \\
            [--threads N]
  eid plan  --store DIR.eids [--json] [--explain] [--analyze]
  eid encode --r R.csv --r-key a,b --s S.csv --s-key c,d \\
            --rules FILE --key x,y --out DIR.eids [--lenient]
  eid inspect --store DIR.eids
  eid validate --rules FILE
  eid session --r R.csv --r-key a,b --s S.csv --s-key c,d --rules FILE
  eid demo

DATASET STORES (eid encode / --store):
  `eid encode` derives, interns, and columnar-encodes the inputs
  once, then persists everything — interner, symbol columns, column
  statistics, blocking indexes — into a checksummed DIR.eids dataset
  directory. `eid match --store` / `eid plan --store` reopen it with
  a single bounded pass: no re-derivation, no re-interning, and the
  planner reads the *persisted* statistics (`stats: persisted` in
  the plan tree). A corrupt or truncated store exits 65, never a
  partial answer.

PLANNING (eid plan):
  Prints the cost-based match plan — blocking keys chosen from
  column statistics, probe strategies, serial vs. parallel — without
  executing it. Default output is an indented text tree (--explain
  is an accepted synonym); --json prints the serialized plan.
  --analyze executes the plan once and prints estimated-vs-actual
  columns per node (candidate pairs, rows out, kernel batches, busy
  time) plus a drift summary; combine with --json for the joined
  plan + actuals document.

TRACING (eid match):
  --trace-out PATH writes the run's execution timeline as Chrome
  trace_event JSON: one slice per engine task, labeled with its plan
  node's span, nested kernel-tile slices, one track per worker. Load
  it in Perfetto (https://ui.perfetto.dev) or chrome://tracing.

RUN BUDGETS (eid match):
  --lenient        skip malformed CSV rows (counted in the report)
                   instead of failing the whole ingest
  --timeout-ms N   abort with exit 124 after N wall-clock milliseconds
  --max-pairs N    abort with exit 125 past N candidate pairs
  --max-mem-mb N   past N MiB of pair lists, degrade to spilled
                   (out-of-core) emission; abort with exit 126 only
                   when spilling is off or also fails
  --no-spill       never spill to disk — a tripped byte budget aborts
  --spill-dir DIR  parent directory for spill files (default: the
                   system temp dir); each run removes its own subdir
  --keep-spill     keep the run's spill directory for debugging
  A tripped budget still writes --report-json with partial progress."
    );
}

/// Parses `--flag value` pairs plus boolean flags.
fn parse_flags(
    args: &[String],
    valued: &[&str],
    boolean: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{}`", args[i]))?;
        if boolean.contains(&flag) {
            out.insert(flag.to_string(), "true".to_string());
            i += 1;
        } else if valued.contains(&flag) {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{flag} needs a value"))?;
            out.insert(flag.to_string(), value.clone());
            i += 2;
        } else {
            return Err(format!("unknown flag --{flag}"));
        }
    }
    Ok(out)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("--{name} is required"))
}

/// Parses the optional `--emit` flag (refutation emission path).
fn parse_emit_flag(flags: &HashMap<String, String>) -> Result<EmitHint, String> {
    match flags.get("emit").map(String::as_str) {
        None | Some("auto") => Ok(EmitHint::Auto),
        Some("spilled") => Ok(EmitHint::Spilled),
        Some(other) => Err(format!("--emit: `{other}` is not one of auto, spilled")),
    }
}

/// Parses one optional numeric budget flag.
fn parse_budget_flag(flags: &HashMap<String, String>, name: &str) -> Result<Option<u64>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("--{name}: `{v}` is not a non-negative integer")),
    }
}

/// Loads one relation, honouring `--lenient`: malformed data rows are
/// skipped (warned to stderr) instead of failing the ingest. Returns
/// the relation and how many rows were rejected.
fn load_relation(
    name: &str,
    path: &str,
    text: &str,
    key: &[&str],
    lenient: bool,
) -> Result<(Relation, u64), String> {
    if lenient {
        let (rel, rejects): (Relation, Vec<CsvReject>) =
            from_csv_inferred_lenient(name, text, key).map_err(|e| format!("{path}: {e}"))?;
        for rej in &rejects {
            eprintln!("warning: {path}: skipped line {}: {}", rej.line, rej.error);
        }
        Ok((rel, rejects.len() as u64))
    } else {
        let rel = from_csv_inferred(name, text, key).map_err(|e| format!("{path}: {e}"))?;
        Ok((rel, 0))
    }
}

/// A minimal report for an aborted run: the abort label plus the
/// partial-progress counters, so `--report-json` is still written.
fn abort_report(reason: &AbortReason, partial: &PartialStats) -> MatchReport {
    let mut rep = Recorder::new().report();
    rep.set_label(label::ABORT, reason.code());
    rep.set_counter("abort/elapsed_ms", partial.elapsed_ms);
    rep.set_counter("abort/pairs_charged", partial.pairs_charged);
    rep.set_counter("abort/bytes_charged", partial.bytes_charged);
    rep.set_counter("abort/tasks_completed", partial.tasks_completed);
    rep.set_counter("abort/tasks_total", partial.tasks_total);
    rep.set_counter("abort/matching", partial.matching);
    rep.set_counter("abort/negative", partial.negative);
    rep
}

/// Loads the matching inputs for `eid match` / `eid plan` from either
/// a persistent dataset store (`--store DIR`) or the CSV + rules
/// flags. Returns the original relations, the count of lenient-mode
/// rejected rows, the base [`MatchConfig`], and the opened dataset
/// (when store-backed).
type MatchInputs = (Relation, Relation, u64, MatchConfig, Option<Arc<Dataset>>);

fn load_match_inputs(flags: &HashMap<String, String>) -> Result<MatchInputs, CliError> {
    if let Some(dir) = flags.get("store") {
        for f in ["r", "s", "r-key", "s-key", "rules"] {
            if flags.contains_key(f) {
                return Err(CliError::from(format!(
                    "--{f} cannot be combined with --store (the dataset carries it)"
                )));
            }
        }
        let ds = Arc::new(Dataset::open(Path::new(dir)).map_err(cli_error_of)?);
        let mut config = ds.match_config();
        // An explicit --key must agree with the persisted extension;
        // EntityMatcher::from_dataset rejects a mismatch (exit 65).
        if let Some(k) = flags.get("key") {
            config.extended_key = ExtendedKey::of_strs(&k.split(',').collect::<Vec<_>>());
        }
        let (r, s) = (
            ds.r().map_err(cli_error_of)?.clone(),
            ds.s().map_err(cli_error_of)?.clone(),
        );
        return Ok((r, s, 0, config, Some(ds)));
    }
    let r_path = required(flags, "r")?;
    let s_path = required(flags, "s")?;
    let r_key: Vec<&str> = required(flags, "r-key")?.split(',').collect();
    let s_key: Vec<&str> = required(flags, "s-key")?.split(',').collect();
    let key: Vec<&str> = required(flags, "key")?.split(',').collect();
    let rules_path = required(flags, "rules")?;
    let lenient = flags.contains_key("lenient");

    let r_text = std::fs::read_to_string(r_path).map_err(|e| format!("{r_path}: {e}"))?;
    let s_text = std::fs::read_to_string(s_path).map_err(|e| format!("{s_path}: {e}"))?;
    let rules_text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("{rules_path}: {e}"))?;

    let (r, r_rejected) = load_relation("R", r_path, &r_text, &r_key, lenient)?;
    let (s, s_rejected) = load_relation("S", s_path, &s_text, &s_key, lenient)?;
    let rules = parse_rules(&rules_text).map_err(|e| format!("{rules_path}:{e}"))?;

    let mut config = MatchConfig::new(ExtendedKey::of_strs(&key), rules.ilfds());
    config.extra_rules = rules.rule_base();
    Ok((r, s, r_rejected + s_rejected, config, None))
}

fn cmd_match(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "r",
            "r-key",
            "s",
            "s-key",
            "rules",
            "key",
            "store",
            "unify",
            "report-json",
            "trace-out",
            "timeout-ms",
            "max-pairs",
            "max-mem-mb",
            "emit",
            "spill-dir",
        ],
        &[
            "integrated",
            "negative",
            "stats",
            "lenient",
            "no-spill",
            "keep-spill",
        ],
    )?;
    let (r, s, rows_rejected, mut config, dataset) = load_match_inputs(&flags)?;
    let key = config.extended_key.clone();
    config.budget = RunBudget {
        timeout_ms: parse_budget_flag(&flags, "timeout-ms")?,
        max_candidate_pairs: parse_budget_flag(&flags, "max-pairs")?,
        max_pair_bytes: parse_budget_flag(&flags, "max-mem-mb")?.map(|mb| mb * 1024 * 1024),
    };
    config.trace = flags.contains_key("trace-out");
    config.emit = parse_emit_flag(&flags)?;
    config.spill = !flags.contains_key("no-spill");
    config.spill_dir = flags.get("spill-dir").map(std::path::PathBuf::from);
    config.keep_spill = flags.contains_key("keep-spill");

    // §3.2 necessary checks before matching.
    let report = entity_id::core::validate::validate_knowledge(&r, &s, &config)
        .map_err(|e| e.to_string())?;
    for v in &report.ilfd_violations {
        println!(
            "warning: tuple {} of {} contradicts ILFD {}",
            v.key, v.side, v.ilfd
        );
    }
    for d in &report.key_duplicates {
        println!(
            "warning: tuples {} and {} of {} share extended-key value {}",
            d.keys.0, d.keys.1, d.side, d.shared
        );
    }

    let matcher = match &dataset {
        Some(ds) => EntityMatcher::from_dataset(Arc::clone(ds), config),
        None => EntityMatcher::new(r.clone(), s.clone(), config),
    }
    .map_err(cli_error_of)?;
    let run = matcher.run();
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            // A tripped budget still honours --report-json: the abort
            // label plus partial progress, so tooling can tell "ran
            // out of budget at task 37/128" from "never started".
            if let (Some(path), CoreError::Aborted { reason, partial }) =
                (flags.get("report-json"), &e)
            {
                let mut rep = abort_report(reason, partial);
                if rows_rejected > 0 {
                    rep.set_counter(counter::INGEST_ROWS_REJECTED, rows_rejected);
                }
                std::fs::write(path, rep.to_json()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("partial report written to {path}");
            }
            return Err(cli_error_of(e));
        }
    };
    if rows_rejected > 0 {
        outcome
            .stats
            .set_counter(counter::INGEST_ROWS_REJECTED, rows_rejected);
    }

    match outcome.verify() {
        Ok(()) => println!("Message: The extended key is verified."),
        Err(e) => println!("Message: The extended key causes unsound matching result. ({e})"),
    }
    println!();
    println!(
        "{}",
        render_default(
            "matching table",
            &outcome
                .matching
                .to_relation("MT")
                .map_err(|e| e.to_string())?
        )
    );
    if flags.contains_key("negative") {
        println!(
            "{}",
            render_default(
                "negative matching table",
                &outcome
                    .negative
                    .to_relation("NMT")
                    .map_err(|e| e.to_string())?
            )
        );
    }
    println!("{}", Partition::of(&outcome));

    if flags.contains_key("integrated") {
        let table = IntegratedTable::build(&r, &s, &outcome, &key).map_err(|e| e.to_string())?;
        println!();
        println!("{}", render_default("integrated table", table.relation()));
    }
    if flags.contains_key("stats") {
        println!();
        println!("match report:");
        print!("{}", outcome.stats);
    }
    if let Some(path) = flags.get("report-json") {
        std::fs::write(path, outcome.stats.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!();
        println!("report written to {path}");
    }
    if let Some(path) = flags.get("trace-out") {
        match &outcome.trace {
            Some(trace) => {
                std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
                println!();
                println!(
                    "trace written to {path} ({} slices) — load in Perfetto or chrome://tracing",
                    trace.slice_count()
                );
            }
            // The nested-loop last resort bypasses the plan executor,
            // so no timeline exists; say so instead of writing `{}`.
            None => eprintln!("warning: no trace captured for this run; {path} not written"),
        }
    }
    if let Some(policy) = flags.get("unify") {
        let policy = match policy.as_str() {
            "prefer-r" => ConflictPolicy::PreferR,
            "prefer-s" => ConflictPolicy::PreferS,
            "null" => ConflictPolicy::Null,
            other => return Err(format!("unknown --unify policy `{other}`").into()),
        };
        let unified = unify(&r, &s, &outcome, policy).map_err(|e| e.to_string())?;
        println!();
        println!("{}", render_default("unified relation", &unified.relation));
        if !unified.conflicts.is_empty() {
            println!("attribute-value conflicts resolved ({policy:?}):");
            for c in &unified.conflicts {
                println!("  {c}");
            }
        }
    }
    Ok(())
}

/// `eid plan`: print the match plan the cost-based planner would
/// execute for the given inputs, without running it. The relations
/// are loaded, extended, and encoded (the planner reads column
/// statistics from the interned columns), but no probing happens.
fn cmd_plan(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "r", "r-key", "s", "s-key", "rules", "key", "store", "threads", "emit",
        ],
        &["json", "explain", "analyze", "lenient"],
    )?;
    let (r, s, _, mut config, dataset) = load_match_inputs(&flags)?;
    if let Some(t) = flags.get("threads") {
        config.threads = t
            .parse()
            .map_err(|_| format!("--threads: `{t}` is not a non-negative integer"))?;
    }
    config.emit = parse_emit_flag(&flags)?;

    let matcher = match &dataset {
        Some(ds) => EntityMatcher::from_dataset(Arc::clone(ds), config),
        None => EntityMatcher::new(r, s, config),
    }
    .map_err(cli_error_of)?;
    if flags.contains_key("analyze") {
        // EXPLAIN ANALYZE: execute the plan once and join the
        // planner's estimates with the measured per-node actuals.
        let outcome = matcher.run().map_err(cli_error_of)?;
        let plan = matcher.plan().map_err(cli_error_of)?;
        if flags.contains_key("json") {
            println!("{}", plan_analyzed_json(&plan, &outcome.stats));
        } else {
            print!("{}", render_plan_analyzed(&plan, &outcome.stats));
        }
        return Ok(());
    }
    let plan = matcher.plan().map_err(cli_error_of)?;
    if flags.contains_key("json") {
        println!("{}", plan.to_json());
    } else {
        print!("{}", render_plan(&plan));
    }
    Ok(())
}

/// `eid encode`: derive + intern + encode the inputs once and persist
/// the result as a checksummed dataset directory.
fn cmd_encode(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &["r", "r-key", "s", "s-key", "rules", "key", "out"],
        &["lenient"],
    )?;
    let out = required(&flags, "out")?.to_string();
    let (r, s, _, config, _) = load_match_inputs(&flags)?;
    if !config.extra_rules.identity_rules().is_empty()
        || !config.extra_rules.distinctness_rules().is_empty()
    {
        eprintln!(
            "warning: the rules file carries identity/distinctness rules beyond the ILFDs; \
             only ILFDs persist in the store — pass the extra rules again at match time"
        );
    }
    let dir = Path::new(&out);
    let name = dir
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".to_string());
    let rows_r = r.len();
    let rows_s = s.len();

    let t0 = std::time::Instant::now();
    let ds = Dataset::encode(
        &name,
        r,
        s,
        config.extended_key.clone(),
        config.ilfds.clone(),
        config.strategy,
    )
    .map_err(cli_error_of)?;
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let bytes = ds.write(dir).map_err(cli_error_of)?;
    let write_ms = t1.elapsed().as_secs_f64() * 1e3;

    println!(
        "encoded {name}: {rows_r}+{rows_s} rows, {} interned values",
        ds.interner().map_err(cli_error_of)?.len()
    );
    println!("wrote {out}: {bytes} bytes ({encode_ms:.1} ms encode, {write_ms:.1} ms write)");
    Ok(())
}

/// `eid inspect`: open a dataset store (validating every checksum on
/// the way) and print its manifest, per-column statistics, and file
/// sizes.
fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args, &["store"], &[])?;
    let dir = required(&flags, "store")?;
    let path = Path::new(dir);
    let ds = Dataset::open(path).map_err(cli_error_of)?;
    // Inspection doubles as verification: force every deferred
    // section so semantic corruption fails here, not at first match.
    ds.validate().map_err(cli_error_of)?;
    println!("dataset {} ({dir})", ds.name());
    println!(
        "  rows: R={} S={}  interned values: {}",
        ds.r().map_err(cli_error_of)?.len(),
        ds.s().map_err(cli_error_of)?.len(),
        ds.interner().map_err(cli_error_of)?.len()
    );
    println!(
        "  extended key: {}",
        ds.extended_key()
            .attrs()
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  strategy: {:?}  ILFDs: {}  blocking index: {}",
        ds.strategy(),
        ds.ilfds().len(),
        if ds.index().map_err(cli_error_of)?.is_some() {
            "persisted"
        } else {
            "absent"
        }
    );
    for (side, rel, stats) in [
        (
            "R'",
            &ds.ext_r().map_err(cli_error_of)?.relation,
            ds.stats_r(),
        ),
        (
            "S'",
            &ds.ext_s().map_err(cli_error_of)?.relation,
            ds.stats_s(),
        ),
    ] {
        println!("  {side} column stats:");
        for (attr, stat) in rel.schema().attribute_names().zip(stats.iter()) {
            println!(
                "    {attr}: {} distinct, {} null ({:.0}%)",
                stat.distinct,
                stat.nulls,
                stat.null_fraction() * 100.0
            );
        }
    }
    let (files, total) = store_files(path).map_err(cli_error_of)?;
    println!("  files ({total} bytes total):");
    for f in &files {
        println!("    {}: {} bytes", f.name, f.bytes);
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["rules"], &[])?;
    let path = required(&flags, "rules")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let rules = parse_rules(&text).map_err(|e| format!("{path}:{e}"))?;
    let ilfds = rules.ilfds();
    let rb = rules.rule_base();
    println!(
        "{path}: OK — {} ILFDs, {} identity rules, {} distinctness rules",
        ilfds.len(),
        rb.identity_rules().len(),
        rb.distinctness_rules().len()
    );
    let cover = minimal_cover(&ilfds);
    if cover.len() < ilfds.len() {
        println!(
            "note: the ILFD set is redundant — a minimal cover has {} rules:",
            cover.len()
        );
        for i in cover.iter() {
            println!("  {i}");
        }
    } else {
        println!("the ILFD set is already minimal");
    }
    Ok(())
}

/// An interactive session over CSV + rules files, mirroring the
/// Prolog prototype's command loop (§6.3). Commands on stdin:
///
/// ```text
/// setup_extkey a,b,c     -- install an extended key and verify
/// candidates             -- list candidate extended-key attributes
/// print_matchtable
/// print_integ_table
/// print_rr / print_ss    -- the extended relations
/// quit
/// ```
fn cmd_session(args: &[String]) -> Result<(), String> {
    use std::io::BufRead;

    let flags = parse_flags(args, &["r", "r-key", "s", "s-key", "rules"], &[])?;
    let r_path = required(&flags, "r")?;
    let s_path = required(&flags, "s")?;
    let r_key: Vec<&str> = required(&flags, "r-key")?.split(',').collect();
    let s_key: Vec<&str> = required(&flags, "s-key")?.split(',').collect();
    let rules_path = required(&flags, "rules")?;

    let r_text = std::fs::read_to_string(r_path).map_err(|e| format!("{r_path}: {e}"))?;
    let s_text = std::fs::read_to_string(s_path).map_err(|e| format!("{s_path}: {e}"))?;
    let rules_text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("{rules_path}: {e}"))?;
    let r = from_csv_inferred("R", &r_text, &r_key).map_err(|e| format!("{r_path}: {e}"))?;
    let s = from_csv_inferred("S", &s_text, &s_key).map_err(|e| format!("{s_path}: {e}"))?;
    let rules = parse_rules(&rules_text).map_err(|e| format!("{rules_path}:{e}"))?;

    let mut session = entity_id::core::session::Session::new(r, s, rules.ilfds());
    println!("eid session — type `candidates`, `setup_extkey a,b`, `print_matchtable`,");
    println!("`print_integ_table`, `print_rr`, `print_ss`, `plan`, or `quit`.");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        let (cmd, arg) = match line.split_once(' ') {
            Some((c, a)) => (c, a.trim()),
            None => (line, ""),
        };
        let outcome = match cmd {
            "" => Ok(String::new()),
            "quit" | "exit" => break,
            "candidates" => Ok(format!(
                "candidate attributes: {}",
                session
                    .candidate_attributes()
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
            "setup_extkey" => {
                let attrs: Vec<&str> = arg.split(',').map(str::trim).collect();
                session
                    .setup_extended_key(&attrs)
                    .map(|rep| rep.message.to_string())
                    .map_err(|e| e.to_string())
            }
            "print_matchtable" => session.matching_table_display().map_err(|e| e.to_string()),
            "print_integ_table" => session
                .integrated_table_display()
                .map_err(|e| e.to_string()),
            "print_rr" => session.extended_r_display().map_err(|e| e.to_string()),
            "print_ss" => session.extended_s_display().map_err(|e| e.to_string()),
            "plan" => session.plan_display().map_err(|e| e.to_string()),
            other => Err(format!("unknown command `{other}`")),
        };
        match outcome {
            Ok(text) if text.is_empty() => {}
            Ok(text) => println!("{text}"),
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    let (r, s, key, ilfds) = restaurant::example3();
    println!("{}", render_default("R (Table 5)", &r));
    println!("{}", render_default("S (Table 5)", &s));
    let outcome = EntityMatcher::new(r.clone(), s.clone(), MatchConfig::new(key.clone(), ilfds))
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())?;
    outcome.verify().map_err(|e| e.to_string())?;
    println!(
        "{}",
        render_default(
            "matching table (Table 7)",
            &outcome
                .matching
                .to_relation("MT")
                .map_err(|e| e.to_string())?
        )
    );
    let table = IntegratedTable::build(&r, &s, &outcome, &key).map_err(|e| e.to_string())?;
    println!(
        "{}",
        render_default("integrated table (§6.3)", table.relation())
    );
    Ok(())
}
