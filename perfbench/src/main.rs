//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (untraced) or every per-layer metric (traced). Exits 1 when an
//! output check failed, 2 on a usage or set-up error (without a result).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use perfbench::metrics::{self, Metric};
use perfbench::sys::{self, json_str};
use perfbench::trace;
use perfbench::workloads::{self, Params, Report, Size, NAMES};

/// A seed no tuning run of this benchmark used; later claims must also
/// hold on it.
const HELD_OUT_SEED: u64 = 424_242;

/// Length of a layer probe's timed phase.
const PROBE_SECONDS: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}, got {workload:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    for key in map.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Fills the per-layer metrics `workload` does not reach from tiny
/// traced probes of the workloads that do, and notes where each came
/// from.
fn fill_from_probes(report: &mut Report, args: &Args, p: &Params) -> Result<(), String> {
    let mut sources: Vec<String> = Vec::new();
    for other in NAMES.iter().filter(|&&w| w != args.workload) {
        if workloads::layers_of(other).iter().all(|l| report.metrics.contains_key(l)) {
            continue;
        }
        let probe_params = Params { size: Size::Tiny, seconds: PROBE_SECONDS, ..*p };
        let probe = workloads::run(other, &probe_params, true)?;
        report.absorb_counts(&probe, other);
        for (name, value) in probe.metrics {
            if !report.metrics.contains_key(name) {
                report.metrics.insert(name, value);
                sources.push(format!("{}: {}", json_str(name), json_str(&format!("tiny probe of {other}"))));
            }
        }
    }
    if !sources.is_empty() {
        report.note("probe_sourced", format!("{{{}}}", sources.join(", ")));
    }
    Ok(())
}

fn meta(args: &Args, p: &Params, host_ms: [f64; 2]) -> String {
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": {}, \"host_reference_ms\": [{}, {}], \"rustc\": {}, \"commit\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        p.threads,
        json_str(&sys::cpu_model()),
        host_ms[0],
        host_ms[1],
        json_str(sys::rustc_version()),
        json_str(&sys::git_commit()),
    )
}

fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")), PathBuf::from)
        .join("perfbench-traces")
}

fn write_trace(report: &Report, args: &Args) -> Result<PathBuf, String> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    trace::write_tsv(&report.spans, &mut out).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Settles glibc's dynamic mmap threshold before any work: freeing one
/// mapped block just under its 32 MiB ceiling raises the threshold once,
/// now, instead of at a moment that depends on how the worker threads
/// interleave, which made peak RSS bimodal between runs. The block is
/// never touched, so it adds nothing to the peak.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(30 << 20)));
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    settle_allocator();
    let p = Params { seed: args.seed, seconds: args.seconds, size: Size::Full, threads: sys::nproc() };
    let host_before = sys::host_reference_ns(3);
    let mut report = workloads::run(&args.workload, &p, args.trace)?;
    let host_ms = [host_before / 1e6, sys::host_reference_ns(3) / 1e6];
    if args.trace {
        fill_from_probes(&mut report, &args, &p)?;
    } else {
        report.set("peak_rss_mb", sys::peak_rss_mb().ok_or("VmHWM unreadable")?);
        if report.attempted == 0 {
            return Err("no operation attempted".into());
        }
        report.set("ok_frac", (report.attempted - report.failed) as f64 / report.attempted as f64);
    }
    let expected: &[Metric] = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    let mut body = String::new();
    for (i, m) in expected.iter().enumerate() {
        let value =
            report.metrics.get(m.name).copied().ok_or_else(|| format!("metric {} not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(body, "{sep}{}: {{\"value\": {value}, \"unit\": {}}}", json_str(m.name), json_str(m.unit))
            .expect("write to String");
    }

    println!("{}", meta(&args, &p, host_ms));
    let timings: Vec<String> = report.timings.iter().map(|(k, s)| format!("{}: {s}", json_str(k))).collect();
    println!("{{\"timings\": {{{}}}}}", timings.join(", "));
    let notes: Vec<String> = report.notes.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("{{\"notes\": {{{}}}}}", notes.join(", "));
    if args.trace {
        let layers: Vec<String> = trace::by_name(&report.spans)
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    json_str(name),
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect();
        println!("{{\"span_self_time\": {{{}}}}}", layers.join(", "));
        let path = write_trace(&report, &args)?;
        eprintln!("perfbench: {} spans written to {}", report.spans.len(), path.display());
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.attempted, report.failed
    );
    Ok(correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
