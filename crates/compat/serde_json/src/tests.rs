//! The direct writer against the reference renderer in `write.rs`: fixed
//! edge cases, compact and pretty, and properties over random `Value`
//! trees and random perfvar documents.

use crate::{to_string, to_string_pretty, to_string_pretty_at, to_writer, to_writer_pretty};
use crate::{write, Number, Value};
use perfvar_analysis::report::CounterAnalysis;
use perfvar_analysis::telemetry::{Counters, Peaks, StageStats};
use perfvar_analysis::{analyze, diagnose_meta, AnalysisConfig, DiagnoseOptions, PipelineStats};
use perfvar_trace::{Clock, FunctionRole, MetricId, MetricMode, Timestamp, TraceBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Checks `value`'s direct compact and pretty text against the expected
/// text and against the reference renderer of its `Value` tree, and the
/// `io::Write` paths against the `String` ones.
fn check<T: Serialize + ?Sized>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(to_string(value).unwrap(), compact);
    assert_eq!(to_string_pretty(value).unwrap(), pretty);
    matches_oracle(value);
}

/// The direct writer's text for `value`, compact and pretty, through a
/// `String` and through an `io::Write`, equals the reference renderer's
/// text for `value.to_value()`.
fn matches_oracle<T: Serialize + ?Sized>(value: &T) {
    let tree = value.to_value();
    let (compact, pretty) = (write::compact(&tree), write::pretty(&tree));
    assert_eq!(to_string(value).unwrap(), compact);
    assert_eq!(to_string_pretty(value).unwrap(), pretty);
    assert_eq!(to_string(&tree).unwrap(), compact, "Value printer");
    assert_eq!(to_string_pretty(&tree).unwrap(), pretty, "Value printer");
    let mut sink = Vec::new();
    to_writer(&mut sink, value).unwrap();
    assert_eq!(sink, compact.as_bytes());
    sink.clear();
    to_writer_pretty(&mut sink, value).unwrap();
    assert_eq!(sink, pretty.as_bytes());
    for depth in 0..3 {
        assert_eq!(
            nested_oracle(&tree, depth),
            to_string_pretty_at(value, depth).unwrap()
        );
    }
}

/// What [`to_string_pretty_at`] must write for `tree` at `depth`: the
/// reference renderer's text of `tree` as the member of `depth` nested
/// objects, without those objects' own text.
fn nested_oracle(tree: &Value, depth: usize) -> String {
    let wrapped = (0..depth).fold(tree.clone(), |inner, _| {
        Value::Object(vec![("k".to_string(), inner)])
    });
    let text = write::pretty(&wrapped);
    let head: usize = (1..=depth)
        .map(|level| "{\n".len() + 2 * level + "\"k\": ".len())
        .sum();
    let tail: usize = (0..depth)
        .map(|level| "\n".len() + 2 * level + "}".len())
        .sum();
    text[head..text.len() - tail].to_string()
}

#[derive(Serialize, Deserialize)]
enum Shape {
    Unit,
    One(u32),
    Pair(i8, String),
    Named {
        x: f64,
        #[serde(skip)]
        hidden: u8,
        tags: Vec<String>,
    },
}

#[derive(Serialize, Deserialize)]
#[serde(transparent)]
struct Meters(f64);

#[derive(Serialize, Deserialize)]
#[serde(transparent)]
struct Wrapper {
    #[serde(skip)]
    cache: u64,
    inner: Vec<u8>,
}

#[derive(Serialize, Deserialize)]
struct Unit;

#[derive(Serialize, Deserialize)]
struct Tuple(u8, bool);

#[derive(Serialize, Deserialize)]
struct Empty {}

#[derive(Serialize, Deserialize)]
struct Record {
    name: String,
    #[serde(skip)]
    scratch: Vec<u8>,
    #[serde(default)]
    score: Option<f64>,
    shape: Shape,
}

#[derive(Serialize)]
struct Borrowing<'a> {
    text: &'a str,
    items: &'a [u64],
}

#[test]
fn non_finite_floats_are_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        check(&x, "null", "null");
        check(&(x as f32), "null", "null");
        check(&[x], "[null]", "[\n  null\n]");
    }
}

#[test]
fn float_edges() {
    check(&-0.0, "-0.0", "-0.0");
    check(&0.0, "0.0", "0.0");
    check(&1.0, "1.0", "1.0");
    check(&-3.0, "-3.0", "-3.0");
    check(&0.1, "0.1", "0.1");
    check(&-1.5e-7, "-0.00000015", "-0.00000015");
    // Whole floats keep their `.0` below 1e16 only.
    check(
        &9_999_999_999_999_998.0,
        "9999999999999998.0",
        "9999999999999998.0",
    );
    check(
        &-9_999_999_999_999_998.0,
        "-9999999999999998.0",
        "-9999999999999998.0",
    );
    check(&1e16, "10000000000000000", "10000000000000000");
    check(&-1e16, "-10000000000000000", "-10000000000000000");
    check(&1e17, "100000000000000000", "100000000000000000");
    for x in [
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        123456.789,
        1e15 + 0.5,
    ] {
        matches_oracle(&x);
        matches_oracle(&(x as f32));
    }
}

#[test]
fn integer_edges() {
    check(&u64::MAX, "18446744073709551615", "18446744073709551615");
    check(&i64::MIN, "-9223372036854775808", "-9223372036854775808");
    check(&i64::MAX, "9223372036854775807", "9223372036854775807");
    check(&0u8, "0", "0");
    check(&-1i32, "-1", "-1");
    check(
        &usize::MAX,
        &usize::MAX.to_string(),
        &usize::MAX.to_string(),
    );
    check(&(7u16, -7i16), "[7,-7]", "[\n  7,\n  -7\n]");
}

#[test]
fn strings_and_keys_are_escaped() {
    let nasty = "q\"b\\n\nr\rt\tb\u{8}f\u{c}z\u{0}u\u{1f}d\u{7f}é日🦀\u{2028}";
    let escaped = r#""q\"b\\n\nr\rt\tb\bf\fz\u0000u\u001fd"#.to_string() + "\u{7f}é日🦀\u{2028}\"";
    check(nasty, &escaped, &escaped);
    check(&'"', r#""\"""#, r#""\"""#);
    check(&'\u{1}', r#""\u0001""#, r#""\u0001""#);
    let mut map = HashMap::new();
    map.insert(nasty.to_string(), 1u8);
    check(
        &map,
        &format!("{{{escaped}:1}}"),
        &format!("{{\n  {escaped}: 1\n}}"),
    );
    let tree = Value::Object(vec![(nasty.to_string(), Value::String(nasty.to_string()))]);
    check(
        &tree,
        &format!("{{{escaped}:{escaped}}}"),
        &format!("{{\n  {escaped}: {escaped}\n}}"),
    );
}

#[test]
fn empty_containers_also_nested() {
    check(&Vec::<u8>::new(), "[]", "[]");
    check(&Value::Object(Vec::new()), "{}", "{}");
    check(&Empty {}, "{}", "{}");
    check(&vec![Vec::<u8>::new()], "[[]]", "[\n  []\n]");
    check(&HashMap::<String, u8>::new(), "{}", "{}");
    let tree = Value::Object(vec![
        ("a".to_string(), Value::Object(Vec::new())),
        (
            "b".to_string(),
            Value::Array(vec![Value::Array(Vec::new())]),
        ),
    ]);
    check(
        &tree,
        r#"{"a":{},"b":[[]]}"#,
        "{\n  \"a\": {},\n  \"b\": [\n    []\n  ]\n}",
    );
}

#[test]
fn maps_sort_or_keep_their_key_order() {
    let keys = ["pear", "apple", "Zebra", "é", "", "apple2"];
    let hash: HashMap<String, usize> = keys.iter().map(|k| (k.to_string(), k.len())).collect();
    let btree: BTreeMap<String, usize> = hash.clone().into_iter().collect();
    let sorted = r#"{"":0,"Zebra":5,"apple":5,"apple2":6,"pear":4,"é":2}"#;
    assert_eq!(to_string(&hash).unwrap(), sorted);
    assert_eq!(to_string(&btree).unwrap(), sorted);
    matches_oracle(&hash);
    matches_oracle(&btree);
}

#[test]
fn options() {
    check(&None::<u8>, "null", "null");
    check(&Some(3u8), "3", "3");
    check(&Some(Some(f64::NAN)), "null", "null");
    check(
        &vec![None, Some("x")],
        r#"[null,"x"]"#,
        "[\n  null,\n  \"x\"\n]",
    );
}

#[test]
fn every_enum_variant_shape() {
    check(&Shape::Unit, r#""Unit""#, r#""Unit""#);
    check(&Shape::One(7), r#"{"One":7}"#, "{\n  \"One\": 7\n}");
    check(
        &Shape::Pair(-1, "p".to_string()),
        r#"{"Pair":[-1,"p"]}"#,
        "{\n  \"Pair\": [\n    -1,\n    \"p\"\n  ]\n}",
    );
    check(
        &Shape::Named {
            x: 2.0,
            hidden: 9,
            tags: vec![],
        },
        r#"{"Named":{"x":2.0,"tags":[]}}"#,
        "{\n  \"Named\": {\n    \"x\": 2.0,\n    \"tags\": []\n  }\n}",
    );
}

#[test]
fn struct_shapes_transparent_and_skip() {
    check(&Unit, "null", "null");
    check(&Tuple(1, true), "[1,true]", "[\n  1,\n  true\n]");
    check(&Meters(0.5), "0.5", "0.5");
    check(
        &Wrapper {
            cache: 3,
            inner: vec![1],
        },
        "[1]",
        "[\n  1\n]",
    );
    check(
        &Record {
            name: "n".to_string(),
            scratch: vec![1, 2],
            score: None,
            shape: Shape::Unit,
        },
        r#"{"name":"n","score":null,"shape":"Unit"}"#,
        "{\n  \"name\": \"n\",\n  \"score\": null,\n  \"shape\": \"Unit\"\n}",
    );
    check(
        &Borrowing {
            text: "t",
            items: &[1, 2],
        },
        r#"{"text":"t","items":[1,2]}"#,
        "{\n  \"text\": \"t\",\n  \"items\": [\n    1,\n    2\n  ]\n}",
    );
    // Skipped fields are not written and read back as their default.
    let back: Wrapper = crate::from_str("[1]").unwrap();
    assert_eq!((back.cache, back.inner), (0, vec![1]));
    let back: Record = crate::from_str(r#"{"name":"n","shape":"Unit"}"#).unwrap();
    assert!(back.scratch.is_empty() && back.score.is_none() && back.name == "n");
    let Shape::Named { hidden, .. } = crate::from_str(r#"{"Named":{"x":2.0,"tags":[]}}"#).unwrap()
    else {
        panic!("a Named variant");
    };
    assert_eq!(hidden, 0);
}

#[test]
fn nesting_depth_indents_inner_lines_only() {
    let tree = Value::Object(vec![(
        "a".to_string(),
        Value::Array(vec![Value::Number(Number::U64(1))]),
    )]);
    assert_eq!(
        to_string_pretty_at(&tree, 1).unwrap(),
        "{\n    \"a\": [\n      1\n    ]\n  }"
    );
    assert_eq!(
        to_string_pretty_at(&tree, 0).unwrap(),
        to_string_pretty(&tree).unwrap()
    );
    assert_eq!(to_string_pretty_at(&Vec::<u8>::new(), 3).unwrap(), "[]");
    assert_eq!(to_string_pretty_at(&5u8, 2).unwrap(), "5");
    // Deeper than the indentation source holds in one piece.
    matches_oracle(&(0..40).fold(Value::Null, |inner, _| Value::Array(vec![inner])));
}

#[test]
fn sink_output_crosses_its_buffer_bound_intact() {
    let big: Vec<String> = (0..20_000).map(|i| format!("item \"{i}\"\n")).collect();
    matches_oracle(&big);
    let mut sink = Vec::new();
    to_writer_pretty(&mut sink, &big).unwrap();
    assert!(sink.len() > 4 * 64 * 1024);
}

#[test]
fn sink_errors_are_returned() {
    struct Broken;
    impl std::io::Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let big: Vec<u64> = (0..100_000).collect();
    assert!(to_writer(Broken, &big).is_err());
    assert!(to_writer_pretty(Broken, &1u8).is_err());
}

/// Numbers at the edges of the writer: signed zero, whole floats on
/// both sides of the 1e16 cut-over, integer extremes, and non-finite
/// floats.
const EDGE_NUMBERS: &[Number] = &[
    Number::U64(0),
    Number::U64(u64::MAX),
    Number::I64(i64::MIN),
    Number::I64(-1),
    Number::F64(-0.0),
    Number::F64(0.0),
    Number::F64(1.0),
    Number::F64(9_999_999_999_999_998.0),
    Number::F64(1e16),
    Number::F64(-1e16),
    Number::F64(1e17),
    Number::F64(-1e300),
    Number::F64(1e-7),
    Number::F64(f64::MAX),
    Number::F64(f64::MIN_POSITIVE),
    Number::F64(f64::NAN),
    Number::F64(f64::INFINITY),
    Number::F64(f64::NEG_INFINITY),
];

/// String fragments that need escaping, and non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "", "a", "key", " ", "\n", "\r", "\t", "\"", "\\", "\u{0}", "\u{8}", "\u{c}", "\u{1f}",
    "\u{7f}", "é", "日本", "🦀", "\u{2028}", "  \n  ",
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn tricky_string(rng: &mut TestRng) -> String {
    (0..rng.below(4)).map(|_| pick(rng, FRAGMENTS)).collect()
}

fn tricky_f64(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => f64::from_bits(rng.next_u64()),
        1 => (rng.unit_f64() - 0.5) * 1e6,
        2 => (rng.below(2_000_000) as f64 - 1e6) * 1e10,
        _ => match pick(rng, EDGE_NUMBERS) {
            Number::F64(x) => x,
            other => other.as_f64(),
        },
    }
}

fn leaf(rng: &mut TestRng) -> Value {
    match rng.below(8) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Number(Number::U64(rng.next_u64() >> rng.below(64))),
        3 => Value::Number(Number::I64(-((rng.next_u64() >> 1) as i64) - 1)),
        4 | 5 => Value::Number(Number::F64(tricky_f64(rng))),
        6 => Value::Number(pick(rng, EDGE_NUMBERS)),
        _ => Value::String(tricky_string(rng)),
    }
}

/// Random JSON trees up to `depth` levels deep, with empty arrays and
/// objects, escaped keys and duplicate keys all reachable.
struct JsonTree {
    depth: u32,
}

impl Strategy for JsonTree {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        if self.depth == 0 || rng.below(4) == 0 {
            return leaf(rng);
        }
        let child = JsonTree {
            depth: self.depth - 1,
        };
        let len = rng.below(5);
        if rng.below(2) == 0 {
            Value::Array((0..len).map(|_| child.generate(rng)).collect())
        } else {
            Value::Object(
                (0..len)
                    .map(|_| (tricky_string(rng), child.generate(rng)))
                    .collect(),
            )
        }
    }
}

/// A random well-formed trace (function nesting, messages, three metric
/// channels) on up to five ranks, analysed: every document an analysis
/// produces, from one draw.
struct RandomAnalysis;

struct Documents {
    analysis: perfvar_analysis::Analysis,
    diagnosis: perfvar_analysis::Diagnosis,
}

impl Strategy for RandomAnalysis {
    type Value = Option<Documents>;
    fn generate(&self, rng: &mut TestRng) -> Option<Documents> {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name(tricky_string(rng));
        let roles = [
            FunctionRole::Compute,
            FunctionRole::MpiCollective,
            FunctionRole::MpiPointToPoint,
            FunctionRole::Compute,
        ];
        let funcs: Vec<_> = roles
            .iter()
            .enumerate()
            .map(|(i, role)| b.define_function(format!("f{i}{}", tricky_string(rng)), *role))
            .collect();
        for mode in [
            MetricMode::Accumulating,
            MetricMode::Delta,
            MetricMode::Gauge,
        ] {
            b.define_metric(tricky_string(rng) + "m", mode, "#");
        }
        let ranks = 1 + rng.below(5) as usize;
        let pids: Vec<_> = (0..ranks)
            .map(|i| b.define_process(format!("rank {i}")))
            .collect();
        for &pid in &pids {
            let w = b.process_mut(pid);
            let mut t = 0u64;
            let mut stack = Vec::new();
            for _ in 0..rng.below(80) {
                match rng.below(5) {
                    0 | 1 => {
                        let f = funcs[rng.below(funcs.len() as u64) as usize];
                        w.enter(Timestamp(t), f).unwrap();
                        stack.push(f);
                    }
                    2 => {
                        if let Some(f) = stack.pop() {
                            w.leave(Timestamp(t), f).unwrap();
                        }
                    }
                    3 => t += rng.below(1000),
                    _ => {
                        let m = MetricId(rng.below(3) as u32);
                        w.metric(Timestamp(t), m, rng.below(1_000_000)).unwrap();
                    }
                }
            }
            while let Some(f) = stack.pop() {
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace = b.finish().ok()?;
        let analysis = analyze(&trace, &AnalysisConfig::default()).ok()?;
        let diagnosis = diagnose_meta(
            &perfvar_trace::TraceMeta::of(&trace),
            &analysis,
            &DiagnoseOptions::default().config(),
        );
        Some(Documents {
            analysis,
            diagnosis,
        })
    }
}

/// Random pipeline statistics, floats from the edge-heavy generator.
struct RandomStats;

impl Strategy for RandomStats {
    type Value = PipelineStats;
    fn generate(&self, rng: &mut TestRng) -> PipelineStats {
        let mut n = || rng.next_u64() >> rng.below(64);
        let totals = Counters {
            events_replayed: n(),
            bytes_decoded: n(),
            segments_emitted: n(),
            sos_clamped: n(),
            recovery_events: n(),
        };
        let peaks = Peaks {
            max_stack_depth: n(),
            max_live_segments: n(),
            worker_buffers: n(),
            read_buffer_bytes: n(),
            mapped_streams: n(),
            buffered_streams: n(),
            peak_rss_bytes: n(),
        };
        let ranks = n();
        PipelineStats {
            wall_s: tricky_f64(rng),
            stages: (0..rng.below(5))
                .map(|_| StageStats {
                    stage: tricky_string(rng),
                    wall_s: tricky_f64(rng),
                    events: rng.next_u64(),
                    bytes: rng.next_u64() >> 8,
                    decode_s: tricky_f64(rng),
                    replay_s: tricky_f64(rng),
                })
                .collect(),
            totals,
            peaks,
            ranks,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn direct_writer_matches_the_oracle_on_value_trees(tree in JsonTree { depth: 6 }) {
        matches_oracle(&tree);
    }

    #[test]
    fn direct_writer_matches_the_oracle_on_pipeline_stats(stats in RandomStats) {
        matches_oracle(&stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn direct_writer_matches_the_oracle_on_analyses(docs in RandomAnalysis) {
        if let Some(docs) = docs {
            matches_oracle(&docs.analysis);
            matches_oracle(&docs.diagnosis);
            let counters: &[CounterAnalysis] = &docs.analysis.counters;
            for counter in counters {
                matches_oracle(counter);
            }
        }
    }
}
