//! What the matcher reports about one run, folded into per-layer
//! metrics, plus the counts and ground-truth checks every
//! classification workload shares.

use std::time::Instant;

use eid_core::matcher::{EntityMatcher, MatchOutcome};
use eid_core::metrics::GroundTruth;
use eid_core::plan::{EmitMode, PlanNodeKind};
use eid_core::stats::{counter, span};
use eid_core::PairTable;

use crate::harness::{check, ms, Ctx, Layers};

/// MT, NMT and undetermined counts of one classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `|MT|`.
    pub mt: usize,
    /// `|NMT|`.
    pub nmt: usize,
    /// Undetermined pairs.
    pub undetermined: usize,
}

impl Counts {
    /// The counts of a batch outcome.
    pub fn of(o: &MatchOutcome) -> Counts {
        Counts {
            mt: o.matching.len(),
            nmt: o.negative.len(),
            undetermined: o.undetermined,
        }
    }
}

/// Fails unless `got` equals `want`.
pub fn check_counts(what: &str, got: Counts, want: Counts) -> Result<(), String> {
    check(got == want, || {
        format!("{what}: counts {got:?}, expected {want:?}")
    })
}

/// Fails unless the matching table is exactly the ground truth.
pub fn check_truth(what: &str, mt: &PairTable, truth: &GroundTruth) -> Result<(), String> {
    let missing = truth.iter().filter(|(r, s)| !mt.contains(r, s)).count();
    check(mt.len() == truth.len() && missing == 0, || {
        format!(
            "{what}: MT has {} pairs, ground truth {}, {missing} true matches missing",
            mt.len(),
            truth.len()
        )
    })
}

/// Fails unless no pair landed in both MT and NMT.
pub fn check_no_overlap(what: &str, o: &MatchOutcome) -> Result<(), String> {
    let overlap = o.stats.counter(counter::CLASSIFY_OVERLAP);
    check(overlap == 0, || {
        format!("{what}: classify/overlap = {overlap}")
    })
}

fn stage_ms(o: &MatchOutcome, path: &str) -> f64 {
    o.stats.stage_seconds(path) * 1e3
}

/// Adds one traced job's matcher report to `layers`. `match_ms` is
/// the bench-side wall time of the matcher calls, so
/// `match.unattributed_ms` is what the report's wall stages (derive,
/// engine, convert) leave of it. Identity and refute times are busy
/// time summed across workers, not wall time.
fn add_match_layers(layers: &mut Layers, o: &MatchOutcome, match_ms: f64) {
    let derive = stage_ms(o, span::DERIVE);
    let engine = stage_ms(o, span::ENGINE);
    let convert = stage_ms(o, span::CONVERT);
    layers.add("match.derive_ms", derive);
    layers.add("match.engine_ms", engine);
    layers.add("match.convert_ms", convert);
    layers.add(
        "match.unattributed_ms",
        match_ms - derive - engine - convert,
    );
    layers.add("match.encode_ms", stage_ms(o, span::ENGINE_ENCODE));
    layers.add("match.index_ms", stage_ms(o, span::ENGINE_INDEX));
    layers.add("match.identity_cpu_ms", stage_ms(o, span::ENGINE_IDENTITY));
    layers.add("match.refute_cpu_ms", stage_ms(o, span::ENGINE_REFUTE));
    layers.add("match.sink_merge_ms", stage_ms(o, span::ENGINE_SINK_MERGE));
    for (name, c) in [
        ("block.candidates", counter::BLOCK_CANDIDATES),
        ("kernel.batches", counter::KERNEL_BATCHES),
        ("residual.pairs", counter::RESIDUAL_PAIRS),
        ("sink.bytes", counter::SINK_BYTES),
        ("engine.tasks", counter::ENGINE_TASKS),
        ("derive.memo_hits", counter::DERIVE_MEMO_HITS),
    ] {
        layers.add(name, o.stats.counter(c) as f64);
    }
}

/// Adds one traced classification job: its matcher report and
/// output bytes, and once per run the plan it executed, which says
/// which arms the run took (`EntityMatcher::plan` is timed outside
/// the job wall).
pub fn add_job_layers(
    layers: &mut Layers,
    matcher: &EntityMatcher,
    o: &MatchOutcome,
    match_ms: f64,
    out_bytes: usize,
) -> Result<(), String> {
    add_match_layers(layers, o, match_ms);
    layers.add("output.bytes", out_bytes as f64);
    if !layers.is_set("plan.ms") {
        let t = Instant::now();
        let plan = matcher.plan().ctx("plan")?;
        layers.set("plan.ms", ms(t.elapsed()));
        let vector = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PlanNodeKind::VectorScan { .. }))
            .count();
        layers.set("plan.vector_nodes", vector as f64);
        let streamed = plan.emit.mode == EmitMode::Streamed;
        layers.set("plan.streamed", f64::from(u8::from(streamed)));
    }
    Ok(())
}
