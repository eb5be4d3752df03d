//! Benchmark entry point: runs one workload for `--seconds` of host time as
//! repeated fixed-horizon simulations, checks every repetition's outcome and
//! prints the metrics; the last line of stdout is the JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload rr_vif --seed 1 --seconds 30 --trace 0
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fastrak_e2ebench::{
    check, end_to_end, median, peak_rss_mb, per_layer, pinned_fingerprint, quantile, run_once,
    setup, Calibrator, Metric, Outcome, SetupTimes, Spans, StepTrace, Workload, CALIBRATION_REF_S,
    CLASSES, DEFAULT_SEED,
};

/// Fewest repetitions of each kind a run makes, however long they take.
const MIN_REPS: usize = 3;
/// Set-ups timed on their own per run: one takes tens of microseconds, so
/// its median needs many samples to be steady.
const SETUP_REPS: usize = 1_000;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 30, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One repetition: its outcome, or why it failed.
fn attempt(
    a: &Args,
    spans: &mut Spans,
    trace: Option<&mut StepTrace>,
    expected: &mut Option<u64>,
) -> Result<Outcome, String> {
    let w = a.workload;
    let o = catch_unwind(AssertUnwindSafe(|| {
        run_once(w, a.seed, w.horizon(), spans, trace)
    }))
    .map_err(|_| "repetition panicked".to_string())?;
    check(w, w.horizon(), &o)?;
    let fp = o.fingerprint();
    let want = *expected.get_or_insert(fp);
    if fp != want {
        return Err(format!("fingerprint {fp:#018x}, expected {want:#018x}"));
    }
    Ok(o)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The span file and per-class step histograms of a traced run.
fn write_trace(
    a: &Args,
    spans: &Spans,
    st: &StepTrace,
    overhead_s: f64,
) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{}-seed{}.json", a.workload.name(), a.seed);
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace_overhead_s\":{},\"spans\":[",
        a.workload.name(),
        a.seed,
        json_num(overhead_s)
    );
    for (i, sp) in spans.spans().iter().enumerate() {
        let parent = sp.parent.map_or("null".into(), |p| p.to_string());
        s += &format!(
            "{}\n{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            sp.name,
            sp.start_ns,
            sp.end_ns
        );
    }
    s += "],\n\"step_classes\":{";
    for (i, (name, k)) in CLASSES.iter().zip(&st.classes).enumerate() {
        let log2: Vec<String> = k.log2.iter().map(u64::to_string).collect();
        s += &format!(
            "{}\n\"{name}\":{{\"steps\":{},\"busy_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"log2_ns_buckets\":[{}]}}",
            if i == 0 { "" } else { "," },
            k.hist.count(),
            k.busy_ns,
            k.hist.quantile(0.5),
            k.hist.quantile(0.99),
            k.hist.max(),
            log2.join(",")
        );
    }
    s += "}}\n";
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <rr_vif|incast_vf|churn_fastrak> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = a.workload;
    let budget = Duration::from_secs(a.seconds);
    let mut expected = (a.seed == DEFAULT_SEED).then(|| pinned_fingerprint(w));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut spans = Spans::new(a.trace);
    let mut st = StepTrace::default();
    let start = Instant::now();
    let calibrator = Calibrator::new();
    let mut passes = vec![calibrator.time()];
    let Ok(setups) = catch_unwind(|| {
        (0..SETUP_REPS)
            .map(|_| setup(w, a.seed, &mut Spans::new(false)).1)
            .collect::<Vec<SetupTimes>>()
    }) else {
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        return ExitCode::SUCCESS;
    };
    // Traced runs alternate untraced and traced repetitions so the tracing
    // overhead compares like with like; untraced runs only make the former.
    loop {
        let tracing = a.trace && attempted % 2 == 1;
        let enough = plain.len() >= MIN_REPS && (!a.trace || traced.len() >= MIN_REPS);
        if start.elapsed() >= budget && (enough || failed > 0) {
            break;
        }
        attempted += 1;
        let mut rep_trace = StepTrace::default();
        let res = if tracing {
            attempt(&a, &mut spans, Some(&mut rep_trace), &mut expected)
        } else {
            attempt(&a, &mut Spans::new(false), None, &mut expected)
        };
        passes.push(calibrator.time());
        match res {
            Ok(o) if tracing => {
                st.merge(&rep_trace);
                traced.push(o);
            }
            Ok(o) => plain.push(o),
            Err(e) => {
                eprintln!("repetition {attempted}: {e}");
                failed += 1;
            }
        }
    }
    let speed = CALIBRATION_REF_S / median(&passes);
    let fail_frac = failed as f64 / attempted as f64;
    println!(
        "workload={} seed={} horizon_ms={} reps={attempted} failed={failed} fail_frac={fail_frac} fingerprint={}",
        w.name(),
        a.seed,
        w.horizon().as_nanos() / 1_000_000,
        expected.map_or("none".into(), |f| format!("{f:#018x}")),
    );
    if plain.is_empty() || (a.trace && traced.is_empty()) {
        println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
        return ExitCode::SUCCESS;
    }
    let metrics: Vec<Metric> = if a.trace {
        let m = per_layer(&plain, &traced, &setups, speed, &st);
        let overhead = m
            .iter()
            .find(|x| x.0 == "trace.overhead_s")
            .map_or(0.0, |x| x.1);
        match write_trace(&a, &spans, &st, overhead) {
            Ok(path) => println!("trace written to {path}"),
            Err(e) => eprintln!("could not write the trace file: {e}"),
        }
        m
    } else {
        let runs: Vec<f64> = plain.iter().map(|o| o.run_s).collect();
        let totals: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
        println!(
            "unscaled run_s quartiles {:.4} {:.4} {:.4} (n={}); setup_s quartiles {:.7} {:.7} {:.7} (n={}); speed {speed:.4}",
            quantile(&runs, 0.25),
            median(&runs),
            quantile(&runs, 0.75),
            runs.len(),
            quantile(&totals, 0.25),
            median(&totals),
            quantile(&totals, 0.75),
            totals.len()
        );
        let rss = peak_rss_mb().map_or(f64::NAN, |mb| mb - calibrator.bytes() as f64 / MIB);
        end_to_end(&plain, &setups, speed, rss)
    };
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
