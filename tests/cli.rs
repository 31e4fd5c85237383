//! End-to-end tests of the `eid` command-line tool: CSV + rule files
//! in, prototype-style tables out.

use std::io::Write;
use std::process::Command;

fn eid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eid"))
}

struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("eid-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Fixture { dir }
    }

    fn write(&self, name: &str, contents: &str) -> String {
        let path = self.dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const R_CSV: &str = "name,cuisine,street\n\
twincities,chinese,co_b2\n\
twincities,indian,co_b3\n\
itsgreek,greek,front_ave\n\
anjuman,indian,le_salle_ave\n\
villagewok,chinese,wash_ave\n";

const S_CSV: &str = "name,speciality,county\n\
twincities,hunan,roseville\n\
twincities,sichuan,hennepin\n\
itsgreek,gyros,ramsey\n\
anjuman,mughalai,minneapolis\n";

const RULES: &str = "\
speciality = hunan    -> cuisine = chinese\n\
speciality = sichuan  -> cuisine = chinese\n\
speciality = gyros    -> cuisine = greek\n\
speciality = mughalai -> cuisine = indian\n\
name = twincities & street = co_b2     -> speciality = hunan\n\
name = anjuman & street = le_salle_ave -> speciality = mughalai\n\
street = front_ave                     -> county = ramsey\n\
name = itsgreek & county = ramsey      -> speciality = gyros\n";

#[test]
fn match_command_reproduces_example3() {
    let fx = Fixture::new("match");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("knowledge.rules", RULES);
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name,cuisine,speciality",
            "--integrated",
        ])
        .output()
        .expect("run eid");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Message: The extended key is verified."));
    assert!(text.contains("matching table"));
    assert!(text.contains("anjuman"));
    assert!(text.contains("integrated table"));
    assert!(text.contains("null"));
    assert!(text.contains("matching: 3"));
}

#[test]
fn unsound_key_prints_warning_but_succeeds() {
    let fx = Fixture::new("unsound");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("knowledge.rules", RULES);
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name",
        ])
        .output()
        .expect("run eid");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("unsound matching result"));
}

/// Example 1 (Table 1): R(name, street, cuisine) and S(name, city,
/// manager) share only `name`.
const R1_CSV: &str = "name,street,cuisine\n\
villagewok,wash_ave,chinese\n\
ching,co_b_rd,chinese\n\
oldcountry,co_b2_rd,american\n";

const S1_CSV: &str = "name,city,manager\n\
villagewok,mpls,hwang\n\
oldcountry,roseville,libby\n\
expresscafe,burnsville,tom\n";

#[test]
fn plan_command_prints_the_golden_example1_tree() {
    let fx = Fixture::new("plan");
    let r = fx.write("r.csv", R1_CSV);
    let s = fx.write("s.csv", S1_CSV);
    let rules = fx.write("k.rules", "e1.name != e2.name -> e1 != e2\n");
    let args = [
        "plan",
        "--r",
        &r,
        "--r-key",
        "name,street",
        "--s",
        &s,
        "--s-key",
        "name,city",
        "--rules",
        &rules,
        "--key",
        "name",
    ];
    let out = eid().args(args).output().expect("run eid plan");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Golden: the full indented tree, including the cost model's
    // blocking-key rationale. 3×3 = 9 estimated pairs → serial.
    let golden = "match plan — arm blocked, mode serial(auto-small)
  mode: auto: 9 estimated pairs < 50000 — serial
  emit: streamed(1): est 9 raw negative pairs: workers emit into 1 row-range bitset shards, dedup free at emission
  stats: computed
  derive(R) — extend R with missing extended-key attributes; ILFDs fill values (§5)
  derive(S) — extend S with missing extended-key attributes; ILFDs fill values (§5)
    encode — intern 3+3 rows into columnar u32 symbols; hot predicates become integer compares
      block-index — build symbol-keyed inverted indexes for 1 probe plan(s)
        probe(extended-key-equivalence) [probe 0] — blocking key ⟨name⟩ — most selective first: name (3 distinct, 0% null)
      scan(line 1) [scan] — no single-≠ shape: fused residual scan
          sink(1 shards) [streamed, 1 shards] — streamed emission — est 9 raw negative pairs: workers emit into 1 row-range bitset shards, dedup free at emission; shards merged by row range post-scope
            classify — Figure-3 partition: MT / NMT / undetermined accounting
";
    assert_eq!(text, golden);

    // The JSON form carries the same plan, machine-readably.
    let out = eid().args(args).arg("--json").output().unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"arm\": \"blocked\"",
        "\"mode\": \"serial(auto-small)\"",
        "\"workers\": 1",
        "\"index_free\": false",
        "\"kind\": \"identity-probe\"",
        "\"strategy\": \"probe\"",
        "\"key_positions\": [0]",
        "\"kind\": \"refute\"",
        "\"strategy\": \"scan\"",
        "\"kind\": \"classify\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }

    // --explain is an accepted synonym for the default text tree.
    let out = eid().args(args).arg("--explain").output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);

    // Forcing threads flips the plan to parallel without executing.
    let out = eid().args(args).args(["--threads", "3"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("arm blocked_parallel, mode parallel(3)"),
        "{text}"
    );
}

/// EXPLAIN ANALYZE on Example 1: `--analyze` executes the plan and
/// joins the planner's estimates with per-node actuals. Timings vary
/// run to run, so the golden covers everything *but* the time column:
/// the header, the column names, the deterministic est/act volumes,
/// and the drift footer.
#[test]
fn plan_analyze_joins_estimates_with_actuals_on_example1() {
    let fx = Fixture::new("analyze");
    let r = fx.write("r.csv", R1_CSV);
    let s = fx.write("s.csv", S1_CSV);
    let rules = fx.write("k.rules", "e1.name != e2.name -> e1 != e2\n");
    let args = [
        "plan",
        "--r",
        &r,
        "--r-key",
        "name,street",
        "--s",
        &s,
        "--s-key",
        "name,city",
        "--rules",
        &rules,
        "--key",
        "name",
        "--analyze",
    ];
    let out = eid().args(args).output().expect("run eid plan --analyze");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "match plan — arm blocked, mode serial(auto-small) (analyzed)"
    );
    assert_eq!(
        lines.next().unwrap(),
        "  mode: auto: 9 estimated pairs < 50000 — serial"
    );
    let header = lines.next().unwrap();
    for col in [
        "node",
        "est pairs",
        "act pairs",
        "rows out",
        "batches",
        "time",
    ] {
        assert!(header.contains(col), "missing column {col:?} in {header:?}");
    }
    // The probe estimated 3 pairs and saw 2 (2 shared names); the
    // fused residual scan estimated and visited all 9.
    let probe = text
        .lines()
        .find(|l| l.contains("probe(extended-key-equivalence)"))
        .expect("probe row");
    let fields: Vec<&str> = probe.split_whitespace().collect();
    assert!(
        probe.contains(" 3 ") && probe.contains(" 2 "),
        "probe est/act pairs wrong: {fields:?}"
    );
    let scan = text
        .lines()
        .find(|l| l.contains("scan(line 1)"))
        .expect("scan row");
    assert!(scan.contains(" 9 "), "scan est/act pairs wrong: {scan:?}");
    // Stage nodes carry no volume estimate: dash columns.
    let derive = text
        .lines()
        .find(|l| l.contains("derive(R)"))
        .expect("derive row");
    assert!(
        derive.contains(" - "),
        "derive should show dashes: {derive:?}"
    );
    assert_eq!(
        text.lines().last().unwrap(),
        "  drift: 0 node(s) ≥ ×4 off estimate"
    );

    // The JSON form nests the untouched plan next to the actuals.
    let out = eid().args(args).arg("--json").output().unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"plan\": {",
        "\"analyze\": {",
        "\"executed\": true",
        "\"drift_factor\": 4",
        "\"drift_nodes\": 0",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}

#[test]
fn match_trace_out_writes_balanced_chrome_json() {
    let fx = Fixture::new("traceout");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("knowledge.rules", RULES);
    let trace_path = fx.write("trace.json", "");
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name,cuisine,speciality",
            "--trace-out",
            &trace_path,
        ])
        .output()
        .expect("run eid match --trace-out");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trace written to"), "{text}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    // Balanced: as many begin records as end records, at least one
    // slice, and a thread-name track for worker 0.
    let begins = trace.matches("\"ph\":\"B\"").count();
    let ends = trace.matches("\"ph\":\"E\"").count();
    assert!(begins > 0, "no slices in {trace}");
    assert_eq!(begins, ends, "unbalanced trace");
    assert!(trace.contains("\"worker 0\""));
    assert!(trace.contains("match/engine/"));
}

#[test]
fn validate_reports_rule_counts_and_redundancy() {
    let fx = Fixture::new("validate");
    let rules = fx.write(
        "k.rules",
        "a = 1 -> b = 2\nb = 2 -> c = 3\na = 1 -> c = 3\n", // third is redundant
    );
    let out = eid()
        .args(["validate", "--rules", &rules])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 ILFDs"));
    assert!(text.contains("redundant"));
    assert!(text.contains("minimal cover has 2"));
}

#[test]
fn parse_errors_are_reported_with_position() {
    let fx = Fixture::new("badrules");
    let rules = fx.write("bad.rules", "speciality hunan -> cuisine = chinese\n");
    let out = eid()
        .args(["validate", "--rules", &rules])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1:"), "{err}");
}

#[test]
fn bad_csv_key_is_an_error() {
    let fx = Fixture::new("badkey");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("k.rules", RULES);
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "nope",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn demo_runs() {
    let out = eid().arg("demo").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("matching table (Table 7)"));
}

#[test]
fn unify_prints_conflicts() {
    let fx = Fixture::new("unify");
    // Shared `city` column that disagrees on the matched pair.
    let r = fx.write("r.csv", "name,cuisine,city\ntc,chinese,mpls\n");
    let s = fx.write("s.csv", "name,speciality,city\ntc,hunan,st_paul\n");
    let rules = fx.write("k.rules", "speciality = hunan -> cuisine = chinese\n");
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name,cuisine",
            "--unify",
            "prefer-r",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("unified relation"));
    assert!(text.contains("conflicts resolved"));
    assert!(text.contains("city"));
}

#[test]
fn unknown_flags_and_commands_fail_cleanly() {
    let out = eid().args(["match", "--bogus", "x"]).output().unwrap();
    assert!(!out.status.success());
    let out = eid().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = eid().arg("--help").output().unwrap();
    assert!(out.status.success());
}

#[test]
fn session_repl_runs_the_prototype_transcript() {
    use std::io::Write as _;
    use std::process::Stdio;
    let fx = Fixture::new("session");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("knowledge.rules", RULES);
    let mut child = eid()
        .args([
            "session",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn session");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"candidates\nsetup_extkey name\nsetup_extkey name,cuisine,speciality\n\
              print_matchtable\nprint_integ_table\nbogus_command\nquit\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("candidate attributes: name"));
    assert!(text.contains("unsound matching result"));
    assert!(text.contains("The extended key is verified."));
    assert!(text.contains("matching table"));
    assert!(text.contains("integrated table"));
    assert!(text.contains("unknown command `bogus_command`"));
}

#[test]
fn zero_deadline_exits_124_with_partial_report() {
    let fx = Fixture::new("deadline");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("k.rules", RULES);
    let report = fx.dir.join("report.json");
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name,cuisine,speciality",
            "--timeout-ms",
            "0",
            "--report-json",
            &report.to_string_lossy(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(124), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadline"), "{err}");
    // A tripped budget still writes the report, flagged as an abort.
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"abort\""), "{json}");
    assert!(json.contains("deadline"), "{json}");
    assert!(json.contains("abort/elapsed_ms"), "{json}");
}

#[test]
fn pair_budget_exits_125() {
    let fx = Fixture::new("pairs");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("k.rules", RULES);
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name,cuisine,speciality",
            "--max-pairs",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(125), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pair budget"), "{err}");
}

#[test]
fn lenient_skips_malformed_csv_rows() {
    let fx = Fixture::new("lenient");
    // One ragged row (two fields instead of three).
    let ragged = format!("{R_CSV}short,row\n");
    let r = fx.write("r.csv", &ragged);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("k.rules", RULES);
    let args = [
        "match",
        "--r",
        &r,
        "--r-key",
        "name,cuisine",
        "--s",
        &s,
        "--s-key",
        "name,speciality",
        "--rules",
        &rules,
        "--key",
        "name,cuisine,speciality",
    ];
    // Strict mode refuses the file outright, naming the line.
    let strict = eid().args(args).output().unwrap();
    assert!(!strict.status.success());
    assert!(String::from_utf8_lossy(&strict.stderr).contains("line"));
    // Lenient mode skips the row, warns, and matches the clean data.
    let lenient = eid().args(args).arg("--lenient").output().unwrap();
    assert!(
        lenient.status.success(),
        "{}",
        String::from_utf8_lossy(&lenient.stderr)
    );
    let err = String::from_utf8_lossy(&lenient.stderr);
    assert!(err.contains("skipped"), "{err}");
    let text = String::from_utf8_lossy(&lenient.stdout);
    assert!(text.contains("matching: 3"), "{text}");
}

#[test]
fn encode_inspect_and_store_backed_match_round_trip() {
    let fx = Fixture::new("store");
    let r = fx.write("r.csv", R_CSV);
    let s = fx.write("s.csv", S_CSV);
    let rules = fx.write("knowledge.rules", RULES);
    let store = fx.dir.join("world.eids");
    let store = store.to_string_lossy().into_owned();
    let csv_args = [
        "--r",
        &r,
        "--r-key",
        "name,cuisine",
        "--s",
        &s,
        "--s-key",
        "name,speciality",
        "--rules",
        &rules,
        "--key",
        "name,cuisine,speciality",
    ];

    // Encode once…
    let out = eid()
        .arg("encode")
        .args(csv_args)
        .args(["--out", &store])
        .output()
        .expect("run eid encode");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("encoded world:"), "{text}");
    assert!(text.contains("wrote "), "{text}");

    // …inspect shows the manifest, stats, and files…
    let out = eid().args(["inspect", "--store", &store]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dataset world"), "{text}");
    assert!(
        text.contains("extended key: name, cuisine, speciality"),
        "{text}"
    );
    assert!(text.contains("column stats"), "{text}");
    assert!(text.contains("manifest.eid"), "{text}");

    // …and a store-backed match is byte-identical to the CSV path.
    let from_csv = eid()
        .arg("match")
        .args(csv_args)
        .args(["--integrated", "--negative"])
        .output()
        .unwrap();
    assert!(from_csv.status.success());
    let from_store = eid()
        .args(["match", "--store", &store, "--integrated", "--negative"])
        .output()
        .unwrap();
    assert!(
        from_store.status.success(),
        "{}",
        String::from_utf8_lossy(&from_store.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&from_csv.stdout),
        String::from_utf8_lossy(&from_store.stdout),
        "store-backed match differs from the CSV path"
    );

    // The store-backed plan reads persisted statistics; the CSV path
    // computes them.
    let out = eid().args(["plan", "--store", &store]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("  stats: persisted\n"), "{text}");
    let out = eid().arg("plan").args(csv_args).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("  stats: computed\n"), "{text}");

    // --store refuses to mix with CSV inputs.
    let out = eid()
        .args(["match", "--store", &store, "--r", &r])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot be combined with --store"), "{err}");

    // A truncated store file is a typed data error: exit 65, no panic.
    let stats = std::path::Path::new(&store).join("stats.eid");
    let bytes = std::fs::read(&stats).unwrap();
    std::fs::write(&stats, &bytes[..bytes.len() / 2]).unwrap();
    for cmd in ["match", "inspect", "plan"] {
        let out = eid().args([cmd, "--store", &store]).output().unwrap();
        assert_eq!(out.status.code(), Some(65), "{cmd}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("dataset store"), "{cmd}: {err}");
    }
}

#[test]
fn match_warns_on_inconsistent_data() {
    let fx = Fixture::new("warn");
    // S's hunan tuple claims greek cuisine, contradicting the ILFD.
    let r = fx.write("r.csv", "name,cuisine\ntc,chinese\n");
    let s = fx.write("s.csv", "name,speciality,cuisine\ntc,hunan,greek\n");
    let rules = fx.write("k.rules", "speciality = hunan -> cuisine = chinese\n");
    let out = eid()
        .args([
            "match",
            "--r",
            &r,
            "--r-key",
            "name,cuisine",
            "--s",
            &s,
            "--s-key",
            "name,speciality",
            "--rules",
            &rules,
            "--key",
            "name,cuisine",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("warning:"), "{text}");
    assert!(text.contains("contradicts ILFD"), "{text}");
}
