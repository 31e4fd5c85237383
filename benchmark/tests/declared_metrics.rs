//! The benchmark's own checks: every workload prints exactly the
//! metrics `BENCHMARK.json` declares, with their units, and on every
//! workload the traced run's per-layer spans plus
//! `job.unattributed_ms` add up to the job wall within 5 %.
//!
//! Runs each workload for one second per trace mode; build with
//! `--release` (`cargo test --release --manifest-path
//! benchmark/Cargo.toml`), the store workload is slow in a debug
//! build.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// A parsed JSON value — just what these checks read.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key `{key}`")),
            other => panic!("`{key}` looked up in non-object {other:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected `{}` at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }
    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        let v = self.value();
                        assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() != b']' {
                    loop {
                        a.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(a)
            }
            b'"' => Json::Str(self.string()),
            _ => self.scalar(),
        }
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => {
                    let start = self.i - 1;
                    let len = utf8_len(c);
                    out.push_str(std::str::from_utf8(&self.s[start..start + len]).expect("utf-8"));
                    self.i = start + len;
                }
            }
        }
    }
    fn scalar(&mut self) -> Json {
        let start = self.i;
        while self.i < self.s.len() && !b",}] \n\t\r".contains(&self.s[self.i]) {
            self.i += 1;
        }
        match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
            "null" => Json::Null,
            "true" => Json::Bool(true),
            "false" => Json::Bool(false),
            n => Json::Num(
                n.parse()
                    .unwrap_or_else(|_| panic!("bad JSON scalar `{n}`")),
            ),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// One run's result line and the rest of its standard output.
struct Run {
    result: Json,
    header: String,
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_eid-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("spawn eid-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (header, last) = stdout.trim_end().rsplit_once('\n').expect("header lines");
    Run {
        result: Parser::parse(last),
        header: header.to_string(),
    }
}

/// Every workload run once untraced and once traced, shared by the
/// tests below.
fn runs() -> &'static Vec<(String, Run, Run)> {
    static RUNS: OnceLock<Vec<(String, Run, Run)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        benchmark_json()
            .get("workloads")
            .arr()
            .iter()
            .map(|w| {
                let name = w.get("name").str().to_string();
                let (plain, traced) = (run(&name, 0), run(&name, 1));
                (name, plain, traced)
            })
            .collect()
    })
}

fn printed(run: &Run) -> BTreeMap<String, String> {
    run.result
        .get("metrics")
        .obj()
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert!(!runs().is_empty(), "BENCHMARK.json declares no workloads");
    for (name, plain, traced) in runs() {
        assert_eq!(printed(plain), e2e, "{name}: end-to-end metrics or units");
        assert_eq!(
            printed(traced),
            layers,
            "{name}: per-layer metrics or units"
        );
        for run in [plain, traced] {
            assert_eq!(run.result.get("correct"), &Json::Bool(true), "{name}");
            assert!(
                run.result.get("attempted").num() >= 1.0,
                "{name}: no operation"
            );
            assert_eq!(
                run.result.get("failed").num(),
                0.0,
                "{name}: failed operations"
            );
            assert!(
                run.header.contains("seed=7"),
                "{name}: the seed is not echoed"
            );
        }
    }
}

#[test]
fn traced_spans_close_the_ledger_within_five_percent() {
    // The top-level layer spans of one operation; the rest of the
    // job wall is `job.unattributed_ms`.
    const LAYERS: &[&str] = &[
        "ingest.ms",
        "validate.ms",
        "store.open_ms",
        "match.ms",
        "verify.ms",
        "output.ms",
        "incremental.insert_ms",
        "incremental.add_ilfd_ms",
    ];
    for (name, _, traced) in runs() {
        let m = traced.result.get("metrics");
        let v = |k: &str| m.get(k).get("value").num();
        let job = v("job.ms");
        let spans: f64 = LAYERS.iter().map(|k| v(k)).sum();
        let unattributed = v("job.unattributed_ms");
        assert!(job > 0.0, "{name}: no traced job");
        assert!(
            (spans + unattributed - job).abs() <= 0.05 * job,
            "{name}: layers {spans} + unattributed {unattributed} != job {job}"
        );
        assert!(
            unattributed.abs() <= 0.05 * job,
            "{name}: {unattributed} of {job} ms is outside every layer span"
        );

        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}-seed7.json"));
        let spans = Parser::parse(&std::fs::read_to_string(&path).expect("span JSON written"));
        assert_eq!(spans.get("workload").str(), name);
        let roots = spans
            .get("spans")
            .arr()
            .iter()
            .filter(|s| s.get("parent") == &Json::Null)
            .count();
        assert_eq!(
            roots as f64,
            spans.get("ops").num(),
            "{name}: one root span per op"
        );
        assert_eq!(roots as f64, v("job.samples"), "{name}: job.samples");
    }
}
