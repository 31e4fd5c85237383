//! `federated_updates`: the write side. An `IncrementalMatcher` built
//! over the first 90 % of R and S takes the rest as `insert` events,
//! R and S in turn, and the withheld ILFDs one by one through
//! `add_ilfd`, spread evenly over the inserts.

use std::time::Instant;

use eid_core::incremental::{IncrementalMatcher, SideSel};
use eid_core::matcher::{EntityMatcher, MatchConfig};
use eid_core::stats::{counter, span};
use eid_ilfd::Ilfd;
use eid_relational::{Relation, Tuple};

use crate::engine_layers::{check_counts, Counts};
use crate::harness::{check, ms, quantile, Ctx, Layers, Opts, RunResult, Samples, Tracer, THREADS};
use crate::scaling_workload;

/// Entities behind the generated inputs (about 1.2k rows a side).
const N_ENTITIES: usize = 1_600;
/// Share of the `speciality → cuisine` ILFDs known up front.
const COVERAGE: f64 = 0.5;
/// Set-up repetitions `setup_s` is the median of.
const SETUP_REPS: usize = 5;

#[derive(Clone)]
enum Event {
    Insert(SideSel, Tuple),
    AddIlfd(Ilfd),
}

/// Splits `rel` into its first 90 % (as a relation) and the rest.
fn split(rel: &Relation) -> Result<(Relation, Vec<Tuple>), String> {
    let keep = rel.len() * 9 / 10;
    let mut base = Relation::new(rel.schema().clone());
    for t in &rel.tuples()[..keep] {
        base.insert(t.clone()).ctx("base relation")?;
    }
    Ok((base, rel.tuples()[keep..].to_vec()))
}

/// The event sequence: tail tuples of R and S in turn, with the
/// withheld ILFDs spread evenly, the last one after the last insert.
fn events(r_tail: Vec<Tuple>, s_tail: Vec<Tuple>, withheld: Vec<Ilfd>) -> Vec<Event> {
    let mut inserts = Vec::new();
    let (mut r_it, mut s_it) = (r_tail.into_iter(), s_tail.into_iter());
    loop {
        let (r, s) = (r_it.next(), s_it.next());
        if r.is_none() && s.is_none() {
            break;
        }
        inserts.extend(r.map(|t| Event::Insert(SideSel::R, t)));
        inserts.extend(s.map(|t| Event::Insert(SideSel::S, t)));
    }
    let (n, m) = (inserts.len(), withheld.len());
    let mut out = Vec::with_capacity(n + m);
    let mut ilfds = withheld.into_iter().enumerate().peekable();
    for (i, e) in inserts.into_iter().enumerate() {
        out.push(e);
        while let Some((k, _)) = ilfds.peek() {
            if (k + 1) * n / m > i + 1 {
                break;
            }
            let (_, f) = ilfds.next().expect("peeked");
            out.push(Event::AddIlfd(f));
        }
    }
    out.extend(ilfds.map(|(_, f)| Event::AddIlfd(f)));
    out
}

/// The counts a batch run gives on the matcher's current relations
/// with `ilfds`.
fn batch_counts(im: &IncrementalMatcher, config: &MatchConfig) -> Result<Counts, String> {
    let (r, s) = im.relations();
    let o = EntityMatcher::new(r.clone(), s.clone(), config.clone())
        .and_then(|m| m.run())
        .ctx("batch reference run")?;
    Ok(Counts::of(&o))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let w = scaling_workload(N_ENTITIES, COVERAGE, opts.seed);
    let (r_base, r_tail) = split(&w.r)?;
    let (s_base, s_tail) = split(&w.s)?;
    let withheld: Vec<Ilfd> = w
        .full_ilfds
        .iter()
        .filter(|f| !w.ilfds.contains(f))
        .cloned()
        .collect();
    let (n_inserts, n_ilfds) = (r_tail.len() + s_tail.len(), withheld.len());
    let events = events(r_tail, s_tail, withheld);
    let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
    config.threads = THREADS;
    let fresh = || IncrementalMatcher::new(r_base.clone(), s_base.clone(), config.clone());

    // Set-up: building the matcher over the base relations. The last
    // one built runs the first pass; later passes build their own.
    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t = Instant::now();
        let im = fresh().ctx("incremental matcher")?;
        setup.push(t.elapsed().as_secs_f64());
        ready = Some(im);
    }

    let mut tr = Tracer::new();
    let mut samples = Samples::default();
    let (mut inserts, mut add_ilfds, mut passes) = (Vec::new(), Vec::new(), 0usize);
    let (mut promoted, mut refuted, mut violations) = (0u64, 0u64, 0u64);
    let (mut refute_ns, mut encode_ns, mut index_ns) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while samples.attempted == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let mut im = match ready.take() {
            Some(im) => im,
            None => fresh().ctx("incremental matcher")?,
        };
        let before = im.report();
        let mut batch_config = config.clone();
        passes += 1;
        let mut completed = true;
        for e in &events {
            if samples.attempted > 0 && start.elapsed().as_secs_f64() >= opts.seconds {
                completed = false;
                break;
            }
            let on = samples.start(opts, &mut tr);
            let (r_len, s_len) = (im.relations().0.len(), im.relations().1.len());
            // An insert checks the new tuple against the other side;
            // an ILFD addition re-runs refutation over all pairs.
            let (layer, pairs) = match e {
                Event::Insert(SideSel::R, _) => ("incremental.insert", s_len),
                Event::Insert(SideSel::S, _) => ("incremental.insert", r_len),
                Event::AddIlfd(_) => ("incremental.add_ilfd", r_len * s_len),
            };
            let event = e.clone();
            let t = Instant::now();
            let op = tr.begin_op();
            let sp = tr.begin(layer);
            let result = match event {
                Event::Insert(side, tuple) => im.insert(side, tuple),
                Event::AddIlfd(f) => im.add_ilfd(f),
            };
            tr.end(sp);
            tr.end(op);
            let wall = ms(t.elapsed());
            if let Err(err) = result {
                eprintln!(
                    "federated_updates event {} failed: {err}",
                    samples.attempted
                );
                samples.failed += 1;
                continue;
            }
            match e {
                Event::Insert(..) => inserts.push(wall),
                Event::AddIlfd(f) => {
                    add_ilfds.push(wall);
                    batch_config.ilfds.insert(f.clone());
                }
            }
            samples.record(wall, on, pairs);
        }

        // Checks, outside the timed region: the maintained tables
        // equal a batch run over the same relations and knowledge,
        // and no event shrank a table.
        let got = Counts {
            mt: im.matching().len(),
            nmt: im.negative().len(),
            undetermined: im.undetermined(),
        };
        check_counts(
            "federated_updates vs batch run",
            got,
            batch_counts(&im, &batch_config)?,
        )?;
        im.verify().ctx("output check failed: incremental verify")?;
        let after = im.report();
        let delta = |c: &str| after.counter(c) - before.counter(c);
        let stage =
            |p: &str| after.stage_nanos(p).unwrap_or(0) - before.stage_nanos(p).unwrap_or(0);
        violations += delta(counter::INCR_MONOTONICITY_VIOLATIONS);
        check(violations == 0, || {
            format!("incremental/monotonicity_violations = {violations}")
        })?;
        promoted += delta(counter::INCR_PROMOTED);
        refuted += delta(counter::INCR_REFUTED);
        refute_ns += stage(span::ENGINE_REFUTE);
        encode_ns += stage(span::ENGINE_ENCODE);
        index_ns += stage(span::ENGINE_INDEX);
        if completed {
            check(batch_config.ilfds.len() == w.full_ilfds.len(), || {
                "a finished pass does not end with the full ILFD set".into()
            })?;
        }
    }
    let mut layers = Layers::default();
    let events_run = samples.walls.len().max(1) as f64;
    let replans = add_ilfds.len().max(1) as f64;
    layers.set("incremental.add_ilfd_p50_ms", quantile(&add_ilfds, 0.5));
    layers.set("incremental.promoted", promoted as f64 / events_run);
    layers.set("incremental.refuted", refuted as f64 / events_run);
    layers.set("incremental.monotonicity_violations", violations as f64);
    layers.set("match.refute_cpu_ms", refute_ns as f64 / 1e6 / replans);
    layers.set("match.encode_ms", encode_ns as f64 / 1e6 / replans);
    layers.set("match.index_ms", index_ns as f64 / 1e6 / replans);
    let notes = vec![
        format!(
            "inputs: {} + {} base rows, {n_inserts} inserts, {} known + {n_ilfds} withheld ILFDs",
            r_base.len(),
            s_base.len(),
            w.ilfds.len(),
        ),
        format!(
            "events: {} inserts, {} add_ilfd over {passes} pass(es), {} traced; \
             insert p50 {:.3} ms, add_ilfd p50 {:.1} ms",
            inserts.len(),
            add_ilfds.len(),
            tr.ops(),
            quantile(&inserts, 0.5),
            quantile(&add_ilfds, 0.5)
        ),
    ];
    samples.finish(Some(&inserts), &setup, layers, tr, notes)
}
