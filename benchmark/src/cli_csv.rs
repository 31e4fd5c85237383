//! `cli_csv`: the one-shot job users run. Each operation is the call
//! sequence of `eid match --integrated`, in process, over CSV and
//! rules files: ingest, `validate_knowledge`, match, `verify`, then
//! render and write MT, the partition and the integrated table.

use std::path::Path;
use std::time::Instant;

use eid_core::integrate::IntegratedTable;
use eid_core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig, MatchOutcome};
use eid_core::partition::Partition;
use eid_core::validate::validate_knowledge;
use eid_datagen::export_workload;
use eid_datagen::io::{FILE_R, FILE_RULES, FILE_S};
use eid_relational::csv::from_csv_inferred;
use eid_relational::display::render_default;
use eid_rules::{parse_rules, ExtendedKey};

use crate::engine_layers::{add_job_layers, check_counts, check_no_overlap, check_truth, Counts};
use crate::harness::{job_loop, ms, Ctx, Layers, Opts, RunResult, Tracer, WorkDir, THREADS};
use crate::scaling_workload;

/// Entities behind the generated inputs (about 600 rows a side).
const N_ENTITIES: usize = 800;
/// Set-up repetitions `setup_s` is the median of.
const SETUP_REPS: usize = 5;

/// What one job leaves behind for the checks.
struct Job {
    matcher: EntityMatcher,
    outcome: MatchOutcome,
    verified: Result<(), String>,
    rows: usize,
    pairs: usize,
    out_bytes: usize,
    match_ms: f64,
}

/// One `eid match --integrated` job: reads `input`, writes the
/// rendered tables into `out`.
fn job(input: &Path, out: &Path, key: &ExtendedKey, tr: &mut Tracer) -> Result<Job, String> {
    let sp = tr.begin("ingest");
    let r_text = std::fs::read_to_string(input.join(FILE_R)).ctx("read r.csv")?;
    let s_text = std::fs::read_to_string(input.join(FILE_S)).ctx("read s.csv")?;
    let rules_text = std::fs::read_to_string(input.join(FILE_RULES)).ctx("read rules")?;
    let r = from_csv_inferred("R", &r_text, &["name", "street"]).ctx("parse r.csv")?;
    let s = from_csv_inferred("S", &s_text, &["name", "speciality"]).ctx("parse s.csv")?;
    let rules = parse_rules(&rules_text).ctx("parse rules")?;
    let mut config = MatchConfig::new(key.clone(), rules.ilfds());
    config.extra_rules = rules.rule_base();
    config.threads = THREADS;
    tr.end(sp);

    let sp = tr.begin("validate");
    let knowledge = validate_knowledge(&r, &s, &config).ctx("validate")?;
    tr.end(sp);

    let sp = tr.begin("match");
    let t = Instant::now();
    let matcher = EntityMatcher::new(r.clone(), s.clone(), config).ctx("matcher")?;
    let outcome = matcher.run().ctx("match")?;
    let match_ms = ms(t.elapsed());
    tr.end(sp);

    let sp = tr.begin("verify");
    let verified = outcome.verify().map_err(|e| e.to_string());
    tr.end(sp);

    let sp = tr.begin("output");
    let mut text = String::new();
    for v in &knowledge.ilfd_violations {
        text.push_str(&format!(
            "warning: tuple {} of {} contradicts ILFD {}\n",
            v.key, v.side, v.ilfd
        ));
    }
    for d in &knowledge.key_duplicates {
        text.push_str(&format!(
            "warning: tuples {} and {} of {} share extended-key value {}\n",
            d.keys.0, d.keys.1, d.side, d.shared
        ));
    }
    let mt = outcome.matching.to_relation("MT").ctx("MT")?;
    text.push_str(&render_default("matching table", &mt));
    text.push_str(&format!("{}\n", Partition::of(&outcome)));
    let integrated = IntegratedTable::build(&r, &s, &outcome, key).ctx("integrate")?;
    let table = render_default("integrated table", integrated.relation());
    std::fs::write(out.join("match.txt"), &text).ctx("write match.txt")?;
    std::fs::write(out.join("integrated.txt"), &table).ctx("write integrated.txt")?;
    tr.end(sp);

    Ok(Job {
        matcher,
        verified,
        rows: r.len() + s.len(),
        pairs: r.len() * s.len(),
        out_bytes: text.len() + table.len(),
        match_ms,
        outcome,
    })
}

/// Checks one job against the set-up oracle.
fn check_job(j: &Job, want: Counts) -> Result<(), String> {
    j.verified
        .clone()
        .map_err(|e| format!("output check failed: verify: {e}"))?;
    check_no_overlap("cli_csv job", &j.outcome)?;
    check_counts(
        "cli_csv job vs nested-loop oracle",
        Counts::of(&j.outcome),
        want,
    )
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let w = scaling_workload(N_ENTITIES, 1.0, opts.seed);
    let work = WorkDir::new("cli_csv")?;
    let out = work.join("out");
    std::fs::create_dir_all(&out).ctx("create output dir")?;

    // Oracle: the nested-loop arm over the generated relations.
    let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    config.join = JoinAlgorithm::NestedLoop;
    config.threads = THREADS;
    let oracle = EntityMatcher::new(w.r.clone(), w.s.clone(), config)
        .and_then(|m| m.run())
        .ctx("nested-loop oracle")?;
    check_truth("nested-loop oracle", &oracle.matching, &w.truth)?;
    let want = Counts::of(&oracle);
    drop(oracle);

    // Set-up: write the inputs and run the first job on them, on
    // fresh files each time; the first repetition is the cold job.
    let mut tr = Tracer::new();
    let mut setup = Vec::new();
    let mut input = work.join("in0");
    for rep in 0..SETUP_REPS {
        input = work.join(&format!("in{rep}"));
        let t = Instant::now();
        export_workload(&w, &input).ctx("export workload")?;
        let j = job(&input, &out, &w.extended_key, &mut tr)?;
        setup.push(t.elapsed().as_secs_f64());
        check_job(&j, want)?;
        check_truth("cli_csv job", &j.outcome.matching, &w.truth)?;
    }

    let mut layers = Layers::default();
    let samples = job_loop(
        opts,
        &mut tr,
        &mut layers,
        |tr| job(&input, &out, &w.extended_key, tr),
        |j, traced| {
            check_job(&j, want)?;
            if let Some(layers) = traced {
                add_job_layers(layers, &j.matcher, &j.outcome, j.match_ms, j.out_bytes)?;
                let verified = j.outcome.matching.len() + j.outcome.negative.len();
                layers.add("verify.pairs", verified as f64);
                layers.add("ingest.rows", j.rows as f64);
            }
            Ok(j.pairs)
        },
    )?;
    let notes = vec![
        format!(
            "inputs: {} + {} rows, {} pairs, {} ILFDs, oracle MT/NMT/undetermined {}/{}/{}",
            w.r.len(),
            w.s.len(),
            w.r.len() * w.s.len(),
            w.ilfds.len(),
            want.mt,
            want.nmt,
            want.undetermined
        ),
        format!("jobs: {} timed, {} traced", samples.walls.len(), tr.ops()),
    ];
    samples.finish(None, &setup, layers, tr, notes)
}
