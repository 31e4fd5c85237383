//! Shared benchmark machinery: the metric catalog, the span tracer,
//! per-layer accumulation, quantiles, and the scratch directories a
//! run works in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads every matcher runs with. Pinned instead of read
/// from `available_parallelism`, so every machine executes the same
/// plan; echoed in the run header.
pub const THREADS: usize = 2;

/// End-to-end metrics, printed by every workload with `--trace 0`:
/// `(name, unit)`. `BENCHMARK.json` lists the same set.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("pairs_per_s", "pairs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload does not call reads 0. Times are means per
/// traced operation unless the README says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("job.ms", "ms"),
    ("job.p90_ms", "ms"),
    ("job.unattributed_ms", "ms"),
    ("job.samples", "count"),
    ("trace.overhead_ms", "ms"),
    ("ingest.ms", "ms"),
    ("ingest.rows", "rows"),
    ("validate.ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.bytes_per_csv_byte", "ratio"),
    ("match.ms", "ms"),
    ("match.derive_ms", "ms"),
    ("match.engine_ms", "ms"),
    ("match.encode_ms", "ms"),
    ("match.index_ms", "ms"),
    ("match.identity_cpu_ms", "ms"),
    ("match.refute_cpu_ms", "ms"),
    ("match.sink_merge_ms", "ms"),
    ("match.convert_ms", "ms"),
    ("match.unattributed_ms", "ms"),
    ("block.candidates", "pairs"),
    ("kernel.batches", "count"),
    ("residual.pairs", "pairs"),
    ("sink.bytes", "bytes"),
    ("engine.tasks", "count"),
    ("derive.memo_hits", "count"),
    ("plan.ms", "ms"),
    ("plan.vector_nodes", "count"),
    ("plan.streamed", "bool"),
    ("verify.ms", "ms"),
    ("verify.pairs", "pairs"),
    ("output.ms", "ms"),
    ("output.bytes", "bytes"),
    ("incremental.insert_ms", "ms"),
    ("incremental.add_ilfd_ms", "ms"),
    ("incremental.add_ilfd_p50_ms", "ms"),
    ("incremental.promoted", "pairs"),
    ("incremental.refuted", "pairs"),
    ("incremental.monotonicity_violations", "count"),
];

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Turns any displayable error into the run's error string, naming
/// the step that failed.
pub trait Ctx<T> {
    /// Prefixes the error with `what`.
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Fails the run with `msg` unless `ok`.
pub fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("output check failed: {}", msg()))
    }
}

/// The benchmark package's own directory; every file a run reads or
/// writes lives under it.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A per-run scratch directory under `work/`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `work/<tag>-<pid>`, emptying any leftover of that name.
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = package_dir()
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).ctx(&dir.display().to_string())?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `work/` itself only when no other run still uses it.
        let _ = std::fs::remove_dir(package_dir().join("work"));
    }
}

/// Index of a span in its tracer; `None` when tracing was off.
pub type SpanId = Option<usize>;

/// One recorded call into a layer.
struct Span {
    /// Layer name (`job` for the root of one operation).
    name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    end_ns: u64,
    /// The enclosing span, if any.
    parent: Option<usize>,
    /// The operation (job or event) the span belongs to.
    op: u64,
}

/// Records one span per layer call, from outside the program. When
/// off, `begin`/`end` are a branch each; spans stay in memory until
/// the run writes them out.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Tracer {
    /// A tracer that starts off.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// Switches recording for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self) -> SpanId {
        if !self.on {
            return None;
        }
        self.ops += 1;
        self.begin("job")
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.ops,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        }
    }

    /// Operations traced so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Each span's self time: its duration minus the part of it its
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Adds every layer's mean per-operation time to `layers`:
    /// `job.ms` from the roots, `<name>.ms` or `<name>_ms` from the
    /// children, and `job.unattributed_ms` from the roots' self time.
    fn fold_into(&self, layers: &mut Layers) {
        let own = self.self_ns();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e6;
            if s.parent.is_none() {
                layers.add("job.ms", dur);
                layers.add("job.unattributed_ms", self_ns as f64 / 1e6);
            } else {
                layers.add(layer_metric(s.name), dur);
            }
        }
    }

    /// The spans as JSON: one object per span, with its self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"ops\": {}, \"spans\": [",
            self.ops
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The per-layer metric a child span's duration accumulates into.
fn layer_metric(span: &'static str) -> &'static str {
    match span {
        "ingest" => "ingest.ms",
        "validate" => "validate.ms",
        "match" => "match.ms",
        "verify" => "verify.ms",
        "output" => "output.ms",
        "store.open" => "store.open_ms",
        "incremental.insert" => "incremental.insert_ms",
        "incremental.add_ilfd" => "incremental.add_ilfd_ms",
        other => panic!("span `{other}` has no per-layer metric"),
    }
}

/// Per-layer accumulator: sums over traced operations (reported as
/// means per operation) plus values set once per run.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    fixed: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds one traced operation's share of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Sets a per-run value (not divided by the operation count).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.fixed.insert(name, v);
    }

    /// Whether `name` was set by [`Layers::set`].
    pub fn is_set(&self, name: &str) -> bool {
        self.fixed.contains_key(name)
    }

    /// Every [`PER_LAYER`] metric: fixed values as set, sums divided
    /// by `ops`, and 0 for layers the workload never called.
    fn finish(&self, ops: u64) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match (self.fixed.get(name), self.sums.get(name)) {
                    (Some(&v), _) => v,
                    (None, Some(&sum)) if ops > 0 => sum / ops as f64,
                    _ => 0.0,
                };
                (name, v, unit)
            })
            .collect()
    }
}

/// The outcome of one benchmark run.
pub struct RunResult {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values, in [`PER_LAYER`] order.
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans.
    pub tracer: Tracer,
    /// Header lines echoed before the result (sizes, sample counts).
    pub notes: Vec<String>,
}

/// Run options shared by every workload.
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a run's timed loop collects.
#[derive(Default)]
pub struct Samples {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Wall time of every successful operation, in ms.
    pub walls: Vec<f64>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    pairs: usize,
}

impl Samples {
    /// Starts the next operation: whether to trace it. In a traced
    /// run, operations alternate traced and untraced, so one run
    /// yields both the per-layer numbers and the tracing overhead.
    pub fn start(&mut self, opts: &Opts, tr: &mut Tracer) -> bool {
        let on = opts.trace && self.attempted.is_multiple_of(2);
        tr.set_on(on);
        self.attempted += 1;
        on
    }

    /// Records a successful operation that classified `pairs` pairs.
    pub fn record(&mut self, wall_ms: f64, traced: bool, pairs: usize) {
        self.walls.push(wall_ms);
        self.pairs += pairs;
        if traced {
            self.traced.push(wall_ms);
        } else {
            self.untraced.push(wall_ms);
        }
    }

    /// Closes the run: the end-to-end metrics from `latencies` (the
    /// operations `op_p50_ms` describes; `None` for all of them) and
    /// the median of `setup_s`, and the per-layer metrics from the
    /// spans and `layers`. The tail, `job.p90_ms`, is per-layer: it
    /// spread too widely between runs to carry a regression bound.
    pub fn finish(
        self,
        latencies: Option<&[f64]>,
        setup_s: &[f64],
        mut layers: Layers,
        tr: Tracer,
        notes: Vec<String>,
    ) -> Result<RunResult, String> {
        tr.fold_into(&mut layers);
        layers.set("job.samples", tr.ops() as f64);
        layers.set(
            "trace.overhead_ms",
            quantile(&self.traced, 0.5) - quantile(&self.untraced, 0.5),
        );
        let wall_s = self.walls.iter().sum::<f64>() / 1e3;
        let latencies = latencies.unwrap_or(&self.walls);
        layers.set("job.p90_ms", quantile(latencies, 0.9));
        let end_to_end = [
            ("op_p50_ms", quantile(latencies, 0.5)),
            ("pairs_per_s", self.pairs as f64 / wall_s),
            ("setup_s", quantile(setup_s, 0.5)),
            ("peak_rss_mb", peak_rss_mb()?),
        ]
        .into_iter()
        .collect();
        Ok(RunResult {
            attempted: self.attempted,
            failed: self.failed,
            end_to_end,
            per_layer: layers.finish(tr.ops()),
            tracer: tr,
            notes,
        })
    }
}

/// Runs `job` in a closed loop for `opts.seconds`, one root span per
/// job. Each successful result goes to `done` outside the timed
/// region, with the per-layer accumulator when the job was traced;
/// `done` checks it and returns the pairs it classified.
pub fn job_loop<J>(
    opts: &Opts,
    tr: &mut Tracer,
    layers: &mut Layers,
    mut job: impl FnMut(&mut Tracer) -> Result<J, String>,
    mut done: impl FnMut(J, Option<&mut Layers>) -> Result<usize, String>,
) -> Result<Samples, String> {
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.attempted == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let on = samples.start(opts, tr);
        let t = Instant::now();
        let op = tr.begin_op();
        let result = job(tr);
        tr.end(op);
        let wall = ms(t.elapsed());
        match result {
            Ok(j) => {
                let pairs = done(j, if on { Some(&mut *layers) } else { None })?;
                samples.record(wall, on, pairs);
            }
            Err(e) => {
                eprintln!("job {} failed: {e}", samples.attempted);
                samples.failed += 1;
            }
        }
    }
    Ok(samples)
}
