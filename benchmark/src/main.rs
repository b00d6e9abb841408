//! The repository benchmark: evaluation throughput and open-loop serving
//! latency, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload eval-finetuned --seed 7 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `eval-finetuned` (Table 5 grid), `eval-fewshot` (Table 6
//! grid) and `serve-zipf` (open-loop stream over the serving layer). With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics from a replay that times every layer
//! call. The last line of standard output is the result object; the line
//! before it, prefixed `record `, holds the host metadata and every
//! metric the run computed. See `README.md` beside this file.

mod eval;
mod expected;
mod layers;
mod openloop;
mod serving;
mod util;

use layers::{EngineTally, Metrics};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["eval-finetuned", "eval-fewshot", "serve-zipf"];

/// Seed the published figures use.
pub const DEFAULT_SEED: u64 = 7;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit, better). Every workload reports all of
/// them; a layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| v.push((name.to_string(), unit, better));
    for name in [
        "footballdb.generate_s",
        "footballdb.load_s",
        "nlq.build_benchmark_s",
        "textosql.profile_s",
        "serve.workload_gen_s",
        "textosql.retrieval_build_s",
        "textosql.predict_s",
        "textosql.predict.engine_s",
        "evalkit.match_s",
        "evalkit.forensics_s",
        "serve.admission.classify_s",
        "serve.execute_s",
        "process.cpu_s",
        "other_s",
        "trace.total_s",
        "trace.wall_s",
    ] {
        add(name, "s", "lower");
    }
    for name in [
        "textosql.profile.engine_queries",
        "textosql.retrieval_build.calls",
        "textosql.predict.calls",
        "textosql.predict.engine_queries",
        "textosql.predict.engine_rows",
        "evalkit.match.calls",
        "evalkit.forensics.calls",
        "sqlengine.cache.misses",
        "sqlengine.cache.oversize",
        "sqlengine.index.builds",
        "sqlengine.index.probes",
        "serve.admission.classify.calls",
        "serve.admission.runaways",
        "serve.execute.calls",
    ] {
        add(name, "count", "lower");
    }
    for name in [
        "sqlengine.cache.hits",
        "serve.admission.shed",
        "latency.samples",
    ] {
        add(name, "count", "higher");
    }
    for name in [
        "sqlengine.cache.hit_ratio",
        "sqlengine.index.hit_ratio",
        "process.cpu_per_wall",
    ] {
        add(name, "ratio", "higher");
    }
    for name in ["other_frac", "trace.overhead_ratio", "failed_frac"] {
        add(name, "ratio", "lower");
    }
    for name in [
        "p50_ms",
        "p99_ms",
        "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.p99",
        "serve.service_ms.p50",
        "serve.service_ms.p99",
        "serve.generator.lag_p99_ms",
    ] {
        add(name, "ms", "lower");
    }
    add("max_ok_qps", "1/s", "higher");
    for stage in evalkit::STAGES {
        for what in ["calls", "rows_out", "fuel_steps"] {
            add(&format!("sqlengine.{stage}.{what}"), "count", "lower");
        }
        add(&format!("sqlengine.{stage}_s"), "s", "lower");
    }
    add("serve.cold_start.p99_ms", "ms", "lower");
    for rate in serving::ladder() {
        add(&format!("serve.ladder.{rate}.p99_ms"), "ms", "lower");
        add(
            &format!("serve.ladder.{rate}.backlog_end"),
            "count",
            "lower",
        );
    }
    v
}

/// Times each set-up layer on its own, serially: the domain generator,
/// the three loads, the gold benchmark and (for the eval workloads) the
/// three difficulty profiles.
pub fn setup_layers(seed: u64, profile: bool, m: &mut Metrics) {
    use footballdb::DataModel;
    let t = Instant::now();
    let domain = footballdb::generate(footballdb::DEFAULT_SEED);
    m.set("footballdb.generate_s", util::secs(t));
    let t = Instant::now();
    let dbs: Vec<_> = DataModel::ALL
        .iter()
        .map(|&model| footballdb::load(&domain, model))
        .collect();
    m.set("footballdb.load_s", util::secs(t));
    let t = Instant::now();
    let bench = nlq::build_benchmark(&domain, seed, &nlq::PipelineConfig::default());
    m.set("nlq.build_benchmark_s", util::secs(t));
    if profile {
        let graphs: Vec<_> = DataModel::ALL
            .iter()
            .map(|model| textosql::JoinGraph::from_catalog(&model.catalog()))
            .collect();
        let guard = sqlengine::TraceGuard::install();
        let t = Instant::now();
        for ((model, db), graph) in DataModel::ALL.iter().zip(&dbs).zip(&graphs) {
            textosql::profile_items_with_db(&bench.test, *model, graph, Some(db));
        }
        m.set("textosql.profile_s", util::secs(t));
        let mut engine = EngineTally::default();
        engine.add_root(&guard.finish());
        m.set("textosql.profile.engine_queries", engine.queries as f64);
    }
}

/// A parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; every value a run reports is finite.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v:?}")
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the listed metrics.
fn metrics_json<'a>(m: &Metrics, specs: impl Iterator<Item = (&'a str, &'a str)>) -> String {
    let fields: Vec<String> = specs
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.get(name)),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repo-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host_cpus = util::host_cpus();
    let workers = host_cpus;
    evalkit::set_thread_override(Some(workers));

    let (attempted, failed, mut m, mut notes) = match args.workload.as_str() {
        "eval-finetuned" | "eval-fewshot" => {
            let grid = if args.workload == "eval-finetuned" {
                eval::Grid::FineTuned
            } else {
                eval::Grid::FewShot
            };
            let r = eval::run(grid, args.seed, args.seconds, args.trace);
            (r.attempted, r.failed, r.metrics, r.notes)
        }
        _ => {
            let r = serving::run(args.seed, args.seconds, workers, args.trace);
            (r.attempted, r.failed, r.metrics, r.notes)
        }
    };
    m.set("peak_rss_mb", util::peak_rss_mb());
    m.set("failed_frac", layers::ratio(failed, attempted));

    // A tail quantile is reported only where at least ten samples lie
    // beyond it.
    let samples = m.get("latency.samples") as usize;
    let tail_ok = util::beyond(samples, 0.99) >= 10;
    if !tail_ok {
        notes.push(format!("only {samples} latency samples: too few for a p99"));
    }
    let correct = failed == 0 && attempted > 0 && tail_ok;

    for line in &notes {
        println!("# {line}");
    }
    let layer_specs = per_layer();
    let all_specs = END_TO_END
        .iter()
        .copied()
        .chain(layer_specs.iter().map(|(n, u, _)| (n.as_str(), *u)));
    for (name, unit) in all_specs.clone() {
        println!("# {name:<36} {:>16.6} {unit}", m.get(name));
    }
    println!(
        "record {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {host_cpus}, \"workers\": {workers}, \"scale\": \"paper\", \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace as u8,
        metrics_json(&m, all_specs),
    );
    println!(
        "{}",
        result_json(correct, attempted, failed, &m, args.trace)
    );
    ExitCode::SUCCESS
}

/// The result object: the end-to-end metrics, or with `trace` the
/// per-layer metrics.
fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics, trace: bool) -> String {
    let reported = if trace {
        let specs = per_layer();
        metrics_json(m, specs.iter().map(|(n, u, _)| (n.as_str(), *u)))
    } else {
        metrics_json(m, END_TO_END.iter().copied())
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {reported}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A JSON value, parsed by the minimal reader below.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Obj(Vec<(String, Json)>),
        Arr(Vec<Json>),
        Str(String),
        Num(f64),
        Bool(bool),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => {
                    &fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("missing key {key}"))
                        .1
                }
                _ => panic!("not an object"),
            }
        }

        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string"),
            }
        }

        fn num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                _ => panic!("not a number"),
            }
        }

        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                _ => panic!("not an array"),
            }
        }
    }

    /// Parses the JSON this benchmark reads and writes (no escapes beyond
    /// `\"` and `\\`, no nulls).
    fn parse(text: &str) -> Json {
        fn ws(b: &[u8], i: &mut usize) {
            while b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn string(b: &[u8], i: &mut usize) -> String {
            assert_eq!(b[*i], b'"');
            *i += 1;
            let mut out = Vec::new();
            while b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                }
                out.push(b[*i]);
                *i += 1;
            }
            *i += 1;
            String::from_utf8(out).unwrap()
        }
        fn value(b: &[u8], i: &mut usize) -> Json {
            ws(b, i);
            match b[*i] {
                b'{' => {
                    *i += 1;
                    let mut fields = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' {
                            *i += 1;
                            return Json::Obj(fields);
                        }
                        let key = string(b, i);
                        ws(b, i);
                        assert_eq!(b[*i], b':');
                        *i += 1;
                        fields.push((key, value(b, i)));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'[' => {
                    *i += 1;
                    let mut items = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b']' {
                            *i += 1;
                            return Json::Arr(items);
                        }
                        items.push(value(b, i));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'"' => Json::Str(string(b, i)),
                b't' | b'f' => {
                    let t = b[*i] == b't';
                    *i += if t { 4 } else { 5 };
                    Json::Bool(t)
                }
                _ => {
                    let start = *i;
                    while *i < b.len() && b"+-.0123456789eE".contains(&b[*i]) {
                        *i += 1;
                    }
                    Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
                }
            }
        }
        let mut i = 0;
        value(text.as_bytes(), &mut i)
    }

    fn spec() -> Json {
        parse(include_str!("../../BENCHMARK.json"))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in &names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.chars().next().unwrap().is_ascii_alphanumeric()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} of {name}"
            );
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runs_emit() {
        let spec = spec();
        let workloads: Vec<&str> = spec
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(&str, &str)> = spec
            .get("end_to_end")
            .arr()
            .iter()
            .map(|m| (m.get("name").str(), m.get("unit").str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(String, &str, &str)> = spec
            .get("per_layer")
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str(),
                    m.get("better").str(),
                )
            })
            .collect();
        assert_eq!(layers, per_layer());
        let bounds: Vec<(&str, f64)> = spec
            .get("end_to_end")
            .arr()
            .iter()
            .map(|m| (m.get("name").str(), m.get("bound").num()))
            .collect();
        let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
            assert!(*bound <= setup, "setup_s must have the largest bound");
        }
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = parse(&result_json(true, 10, 0, &m, false));
        assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics");
        assert_eq!(metrics.keys().len(), END_TO_END.len());
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            assert_eq!(metrics.get(name).get("unit").str(), *unit);
            assert_eq!(metrics.get(name).get("value").num(), 1.5 + i as f64);
        }
        let traced = parse(&result_json(true, 10, 0, &m, true));
        let metrics = traced.get("metrics");
        for (name, unit, _) in per_layer() {
            assert_eq!(metrics.get(&name).get("unit").str(), unit);
        }
    }

    #[test]
    fn bad_command_lines_are_refused() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve-zipf", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve-zipf", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "serve-zipf", "--seed"]).is_err());
        let ok = args(&[
            "--workload",
            "eval-fewshot",
            "--seed",
            "11",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (11, 3.0, true));
    }
}
