//! `odebench` — the repository's one seeded benchmark: check-in,
//! history read, wire serving and routed merge. See `README.md` in this
//! directory for the workloads, the metrics and how they interact.
//!
//! ```text
//! odebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!          [--smoke] [--dir DIR] [--out FILE]
//! odebench compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit, then, as the last
//! line of each workload, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics of an untraced run,
//! the per-layer metrics of a traced one. It exits non-zero when any
//! output failed verification.

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use metrics::{Contract, Metric};
use workloads::{Ctx, Outcome};

const USAGE: &str = "usage: odebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--dir DIR] [--out FILE]\n       odebench compare A.json B.json";

/// Where traces and, by default, scratch stores go: under the working
/// directory, which is the checkout the benchmark was started in.
const OUTPUT_DIR: &str = "target/odebench";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String], contract: &Contract) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: contract.workloads.clone(),
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
        dir: None,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !contract.workloads.contains(name) {
                    return Err(format!("unknown workload {name}"));
                }
                parsed.workloads = vec![name.clone()];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--dir" => parsed.dir = Some(PathBuf::from(value()?)),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.smoke && !seconds_given {
        parsed.seconds = 0.5;
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(parsed)
}

/// The scratch directory: a fresh `scratch-<pid>` under `--dir` (by
/// default under [`OUTPUT_DIR`]), removed on drop — so also when a
/// panic unwinds through `real_main`. Nothing else under `--dir` is
/// touched.
struct Scratch(PathBuf);

impl Scratch {
    fn create(parent: Option<PathBuf>) -> std::io::Result<Scratch> {
        let parent = parent.unwrap_or_else(|| PathBuf::from(OUTPUT_DIR));
        std::fs::create_dir_all(&parent)?;
        let path = parent.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir(&path)?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Report<'a> {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the final JSON line, in `BENCHMARK.json` order.
    metrics: Vec<(&'a Metric, f64)>,
}

impl Report<'_> {
    fn json(&self, prefix: &str) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(*v),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{{prefix}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Turn what the workload measured into the named metrics, printing
/// each as it goes.
fn report<'a>(name: &str, ctx: &Ctx, contract: &'a Contract, out: Outcome) -> Report<'a> {
    let log = &out.log;
    let attempted = log.units.len() as u64 + out.verify_attempted;
    let failed = log.failed + out.verify_failed;
    println!(
        "workload {name} seed {} traced {}",
        ctx.seed, ctx.traced as u8
    );
    println!("input_digest {:016x}", out.input_digest);
    println!(
        "threads {} of {} available",
        log.tracers.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for e in log.errors.iter().chain(&out.verify_errors) {
        println!("error {e}");
    }
    println!(
        "fail_ratio {} ratio",
        failed as f64 / attempted.max(1) as f64
    );

    let latencies = log.sorted_latencies();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    match log.p50_ns() {
        None => println!("error no unit completed"),
        Some(p50_ns) => {
            values.insert("p50_us", p50_ns as f64 / 1e3);
            // The tail is taken over every unit of the run, traced
            // slices included, so a traced run has the samples for it.
            let (q, tail) = stats::tail(&latencies);
            if q < 0.99 {
                println!(
                    "note p99 refused below {} samples; unit.p99_us holds p{:.1}",
                    stats::P99_MIN_SAMPLES,
                    q * 100.0
                );
            }
            values.insert("unit.p99_us", tail as f64 / 1e3);
        }
    }
    println!("samples {} count", latencies.len());
    values.insert("setup_s", stats::median(&out.setup_s));
    values.insert("ops_per_s", log.ops_per_s(false));
    values.insert(
        "stored_bytes_per_user_byte",
        workloads::ratio(out.stored_bytes as f64, out.user_bytes as f64),
    );
    values.insert("peak_rss_mb", log.peak_rss_mb);

    if ctx.traced {
        values.extend(out.layer.iter().map(|(k, v)| (*k, *v)));
        for (span, own_ns) in trace::self_times_by_name(&log.tracers) {
            if span != trace::Name::Unit && !own_ns.is_empty() {
                let mut own_ns = own_ns;
                own_ns.sort_unstable();
                values.insert(span.as_str(), stats::percentile(&own_ns, 0.5) as f64 / 1e3);
            }
        }
        values.extend(probes::run(ctx, &out));
        values.insert(
            "trace.overhead_ratio",
            workloads::ratio(log.ops_per_s(true), log.ops_per_s(false)),
        );
        let path = Path::new(OUTPUT_DIR).join(format!("{name}.trace.json"));
        match trace::write_file(&path, name, &log.tracers) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => println!("error writing {}: {e}", path.display()),
        }
        let dropped: u64 = log.tracers.iter().map(|t| t.dropped()).sum();
        println!("trace_spans_dropped {dropped} count");
    }
    for (name, value) in &out.exact {
        println!("exact {name} {value}");
    }

    let (end_to_end, per_layer) = (&contract.end_to_end, &contract.per_layer);
    let pick = |list: &'a [Metric]| -> Vec<(&'a Metric, f64)> {
        list.iter()
            .map(|m| (m, values.get(m.name.as_str()).copied().unwrap_or(0.0)))
            .collect()
    };
    for (m, v) in pick(end_to_end).iter().chain(&pick(per_layer)) {
        if values.contains_key(m.name.as_str()) {
            println!("{} {v} {}", m.name, m.unit);
        }
    }
    for name in values.keys() {
        if !end_to_end.iter().chain(per_layer).any(|m| m.name == *name) {
            println!("note {name} is measured but not in BENCHMARK.json");
        }
    }
    Report {
        correct: failed == 0 && !latencies.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics: pick(if ctx.traced { per_layer } else { end_to_end }),
    }
}

fn real_main() -> i32 {
    let contract = Contract::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return 2;
        };
        return match compare::run(Path::new(a), Path::new(b), &contract) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("odebench compare: {e}");
                2
            }
        };
    }
    let args = match parse_args(&args, &contract) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("odebench: {e}\n{USAGE}");
            return 2;
        }
    };
    let scratch = match Scratch::create(args.dir.clone()) {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("odebench: scratch directory: {e}");
            return 2;
        }
    };

    let mut all_correct = true;
    for name in &args.workloads {
        let dir = scratch.0.join(name);
        std::fs::create_dir_all(&dir).expect("create workload scratch directory");
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            smoke: args.smoke,
            dir,
        };
        let run = workloads::runner(name).expect("BENCHMARK.json names only workloads that exist");
        let report = report(name, &ctx, &contract, run(&ctx));
        all_correct &= report.correct;
        if let Some(out) = &args.out {
            let prefix = format!(
                "\"workload\": {}, \"seed\": {}, \"trace\": {}, ",
                json::quote(name),
                ctx.seed,
                ctx.traced as u8
            );
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out)
                .and_then(|mut f| writeln!(f, "{}", report.json(&prefix)));
            if let Err(e) = appended {
                eprintln!("odebench: {}: {e}", out.display());
                return 2;
            }
        }
        let _ = std::fs::remove_dir_all(&ctx.dir);
        println!("{}", report.json(""));
    }
    if all_correct {
        0
    } else {
        1
    }
}

fn main() {
    // `exit` runs no destructors, so everything that owns files lives
    // and dies inside `real_main`.
    let code = real_main();
    std::process::exit(code);
}
