//! `store_classify`: encode once, classify many. Set-up runs what
//! `eid encode` costs (CSV parse, `Dataset::encode`, write); each
//! operation opens the store, classifies all pairs, takes the
//! partition and writes MT as CSV.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use eid_core::matcher::{EntityMatcher, MatchConfig, MatchOutcome};
use eid_core::partition::Partition;
use eid_core::stats::counter;
use eid_core::store::Dataset;
use eid_datagen::export_workload;
use eid_datagen::io::{FILE_R, FILE_RULES, FILE_S};
use eid_ilfd::Strategy;
use eid_relational::csv::{from_csv_inferred, to_csv};
use eid_rules::parse_rules;

use crate::engine_layers::{add_job_layers, check_counts, check_no_overlap, check_truth, Counts};
use crate::harness::{
    check, job_loop, ms, quantile, Ctx, Layers, Opts, RunResult, Tracer, WorkDir, THREADS,
};
use crate::scaling_workload;

/// Entities behind the generated inputs (about 19k rows a side).
const N_ENTITIES: usize = 25_600;
/// Set-up repetitions `setup_s` is the median of.
const SETUP_REPS: usize = 5;

/// What one job leaves behind for the checks.
struct Job {
    matcher: EntityMatcher,
    outcome: MatchOutcome,
    partition: Partition,
    pairs: usize,
    out_bytes: usize,
    match_ms: f64,
}

/// One job: open `store`, classify, write MT into `out`.
fn job(store: &Path, out: &Path, tr: &mut Tracer) -> Result<Job, String> {
    let sp = tr.begin("store.open");
    let ds = Arc::new(Dataset::open(store).ctx("open store")?);
    tr.end(sp);

    let sp = tr.begin("match");
    let t = Instant::now();
    let mut config = ds.match_config();
    config.threads = THREADS;
    let matcher = EntityMatcher::from_dataset(ds, config).ctx("matcher")?;
    let outcome = matcher.run().ctx("match")?;
    let match_ms = ms(t.elapsed());
    tr.end(sp);

    let sp = tr.begin("output");
    let partition = Partition::of(&outcome);
    let csv = to_csv(&outcome.matching.to_relation("MT").ctx("MT")?);
    std::fs::write(out.join("mt.csv"), &csv).ctx("write mt.csv")?;
    tr.end(sp);

    Ok(Job {
        matcher,
        pairs: outcome.stats.counter(counter::CLASSIFY_PAIRS_TOTAL) as usize,
        outcome,
        partition,
        out_bytes: csv.len(),
        match_ms,
    })
}

/// Checks one job against the set-up run.
fn check_job(j: &Job, want: Counts) -> Result<(), String> {
    check_no_overlap("store_classify job", &j.outcome)?;
    check_counts(
        "store_classify job vs in-RAM run",
        Counts::of(&j.outcome),
        want,
    )?;
    let p = &j.partition;
    check(
        (p.matching, p.not_matching, p.undetermined) == (want.mt, want.nmt, want.undetermined),
        || format!("store_classify partition {p:?} disagrees with the counts {want:?}"),
    )
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let w = scaling_workload(N_ENTITIES, 1.0, opts.seed);
    let work = WorkDir::new("store_classify")?;
    let (csv_dir, store, out) = (work.join("csv"), work.join("w.eids"), work.join("out"));
    std::fs::create_dir_all(&out).ctx("create output dir")?;
    export_workload(&w, &csv_dir).ctx("export workload")?;

    // Reference: the in-RAM matcher over the generated relations.
    let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    config.threads = THREADS;
    let reference = EntityMatcher::new(w.r.clone(), w.s.clone(), config)
        .and_then(|m| m.run())
        .ctx("in-RAM reference run")?;
    check_no_overlap("in-RAM reference run", &reference)?;
    check_truth("in-RAM reference run", &reference.matching, &w.truth)?;
    let want = Counts::of(&reference);
    drop(reference);

    // Set-up: what `eid encode` costs, repeated on the same files.
    let (mut setup, mut encode_ms, mut write_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut store_bytes = 0;
    let mut csv_bytes = 0;
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&store);
        let t = Instant::now();
        let r_text = std::fs::read_to_string(csv_dir.join(FILE_R)).ctx("read r.csv")?;
        let s_text = std::fs::read_to_string(csv_dir.join(FILE_S)).ctx("read s.csv")?;
        let rules_text = std::fs::read_to_string(csv_dir.join(FILE_RULES)).ctx("read rules")?;
        let r = from_csv_inferred("R", &r_text, &["name", "street"]).ctx("parse r.csv")?;
        let s = from_csv_inferred("S", &s_text, &["name", "speciality"]).ctx("parse s.csv")?;
        let ilfds = parse_rules(&rules_text).ctx("parse rules")?.ilfds();
        let ds = Dataset::encode(
            "w",
            r,
            s,
            w.extended_key.clone(),
            ilfds,
            Strategy::FirstMatch,
        )
        .ctx("encode")?;
        let t_write = Instant::now();
        store_bytes = ds.write(&store).ctx("write store")?;
        let done = t.elapsed();
        setup.push(done.as_secs_f64());
        encode_ms.push(ms(t_write - t));
        write_ms.push(ms(done) - ms(t_write - t));
        csv_bytes = r_text.len() + s_text.len() + rules_text.len();
    }

    let mut tr = Tracer::new();
    let first = job(&store, &out, &mut tr)?;
    check_job(&first, want)?;
    check_truth("store_classify job", &first.outcome.matching, &w.truth)?;
    drop(first);

    let mut layers = Layers::default();
    layers.set("store.encode_ms", quantile(&encode_ms, 0.5));
    layers.set("store.write_ms", quantile(&write_ms, 0.5));
    layers.set(
        "store.bytes_per_csv_byte",
        store_bytes as f64 / csv_bytes as f64,
    );
    let samples = job_loop(
        opts,
        &mut tr,
        &mut layers,
        |tr| job(&store, &out, tr),
        |j, traced| {
            check_job(&j, want)?;
            if let Some(layers) = traced {
                add_job_layers(layers, &j.matcher, &j.outcome, j.match_ms, j.out_bytes)?;
            }
            Ok(j.pairs)
        },
    )?;
    let notes = vec![
        format!(
            "inputs: {} + {} rows, {} pairs, {} ILFDs, MT/NMT/undetermined {}/{}/{}",
            w.r.len(),
            w.s.len(),
            w.r.len() * w.s.len(),
            w.ilfds.len(),
            want.mt,
            want.nmt,
            want.undetermined
        ),
        format!(
            "store: {store_bytes} bytes from {csv_bytes} CSV+rules bytes; \
                 encode {:.1} ms, write {:.1} ms (median of {SETUP_REPS})",
            quantile(&encode_ms, 0.5),
            quantile(&write_ms, 0.5)
        ),
        format!("jobs: {} timed, {} traced", samples.walls.len(), tr.ops()),
    ];
    samples.finish(None, &setup, layers, tr, notes)
}
