//! `apecache-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): runs one untimed warm-up pass, then repeats
//! whole passes of the workload, each after a slice of set-up-only
//! timings and with the host-speed probe between its steps, until
//! `--seconds` have passed; checks that every pass produced the same
//! fingerprint; and prints the end-to-end metrics. Traced (`--trace 1`):
//! runs one untraced pass and one pass with the sim-loop self-profiler
//! on, both with the probe, checks that their
//! fingerprints agree, and prints the per-layer metrics. Either way the
//! last stdout line is the JSON result, and a record with the
//! deterministic outputs, host facts and spans is written under
//! `perfbench/out/`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ape_proto::names;
use ape_simnet::ProfCategory;
use apecache_perfbench::probe::Probe;
use apecache_perfbench::spans::Spans;
use apecache_perfbench::workload::{pass, reference_fingerprint, setup_only};
use apecache_perfbench::{
    check_outcome, end_to_end, fingerprint_hex, json_number, metrics_json, peak_rss_mb, per_layer,
    result_line, Declared, HostTimes, Loop, Metric, Outcome, Workload, END_TO_END, PER_LAYER,
};

/// Host time spent timing set-ups before each pass. Spreading set-ups
/// over the run, like the passes, keeps their median from resting on one
/// stretch of host speed. `setup_s` is the median of all of them.
const SETUP_SLICE: Duration = Duration::from_millis(50);
/// Fewest timed set-ups in an untraced run.
const SETUP_MIN_REPS: usize = 5;

/// Where run records go, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: apecache-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let (_, chunks) = w.chunks();
    let mut spans = Spans::new();
    let mut failures = Vec::new();

    // The one-shard reference for a sharded workload runs before any
    // timed work.
    let reference = reference_fingerprint(w, args.seed, chunks);

    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut host = HostTimes::default();
    if args.trace {
        let mut probe = Probe::default();
        outcomes.push(pass(
            w,
            args.seed,
            chunks,
            false,
            &mut spans,
            Some(&mut probe),
        ));
        host.loops.push(Loop::new(&outcomes[0], &probe));
        // The profiled pass runs the probe too, so that both passes see
        // the same disturbance and their difference is the profiler's.
        outcomes.push(pass(
            w,
            args.seed,
            chunks,
            true,
            &mut spans,
            Some(&mut Probe::default()),
        ));
        let profile = &outcomes[1].profile;
        if w == Workload::CitySharded
            && (profile.calls(ProfCategory::ShardBarrier) == 0
                || profile.calls(ProfCategory::MailboxDrain) == 0)
        {
            failures.push(format!(
                "{}: the traced run crossed no shard barrier or drained no mailbox",
                w.name()
            ));
        }
    } else {
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        // An untimed first pass warms the caches and the allocator, and
        // sets the peak resident set before any probe has added to it.
        outcomes.push(pass(w, args.seed, chunks, false, &mut spans, None));
        host.peak_rss_mb = peak_rss_mb();
        while host.loops.is_empty() || Instant::now() < deadline {
            let slice = Instant::now();
            while slice.elapsed() < SETUP_SLICE {
                host.setups.push(setup_only(w, args.seed, &mut spans));
            }
            let mut probe = Probe::default();
            let o = pass(w, args.seed, chunks, false, &mut spans, Some(&mut probe));
            host.loops.push(Loop::new(&o, &probe));
            outcomes.push(o);
        }
        while host.setups.len() < SETUP_MIN_REPS {
            host.setups.push(setup_only(w, args.seed, &mut spans));
        }
    }

    let first = &outcomes[0];
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        if o.fingerprint != first.fingerprint {
            failures.push(format!(
                "{}: pass {i} fingerprint {} differs from pass 0 {}",
                w.name(),
                fingerprint_hex(&o.fingerprint),
                fingerprint_hex(&first.fingerprint)
            ));
        }
    }
    if let Some(reference) = reference {
        if reference != first.fingerprint {
            failures.push(format!(
                "{}: fingerprint {} differs from the one-shard run {}",
                w.name(),
                fingerprint_hex(&first.fingerprint),
                fingerprint_hex(&reference)
            ));
        }
    }
    for o in &outcomes {
        failures.extend(check_outcome(w, o));
    }

    let (declared, metrics): (&[Declared], Vec<Metric>) = if args.trace {
        (
            &PER_LAYER,
            per_layer(&outcomes[1], &outcomes[0], &host.loops[0]),
        )
    } else {
        (&END_TO_END, end_to_end(&host, first))
    };
    for &(name, value) in &metrics {
        if !value.is_finite() {
            failures.push(format!("{}: {name} is {value}", w.name()));
        }
    }
    let attempted: u64 = outcomes
        .iter()
        .map(|o| o.counter(names::CLIENT_FETCHES))
        .sum();
    let failed: u64 = outcomes
        .iter()
        .map(|o| o.counter(names::CLIENT_FETCH_FAILURES))
        .sum();

    for (&(name, value), &(_, unit)) in metrics.iter().zip(declared) {
        if name == "app_p50_ms" || name == "app_p99_ms" {
            println!(
                "{name} = {value} {unit} (n = {} executions)",
                first.app_samples
            );
        } else {
            println!("{name} = {value} {unit}");
        }
    }

    let record = record_json(&args, &host, &outcomes, &metrics, &failures, &spans);
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record)) {
        Ok(()) => println!("record: {path}"),
        Err(e) => failures.push(format!("cannot write {path}: {e}")),
    }

    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    let metrics_json = if metrics.iter().all(|m| m.1.is_finite()) {
        metrics_json(&metrics, declared)
    } else {
        "{}".to_owned()
    };
    println!("{}", result_line(correct, attempted, failed, &metrics_json));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run record: host facts, the deterministic outputs that must repeat
/// for a seed, each pass's host timings, the metrics, and the spans.
fn record_json(
    args: &Args,
    host: &HostTimes,
    outcomes: &[Outcome],
    metrics: &[Metric],
    failures: &[String],
    spans: &Spans,
) -> String {
    let first = &outcomes[0];
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"apecache-perfbench/v1\",");
    let _ = writeln!(out, "  \"workload\": \"{}\",", args.workload.name());
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"trace\": {},", args.trace);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"rustc\": \"{}\",", env!("PERFBENCH_RUSTC"));
    let _ = writeln!(out, "  \"deterministic\": {{");
    let _ = writeln!(
        out,
        "    \"sim_span_s\": {},",
        json_number(first.sim_span_s)
    );
    let _ = writeln!(out, "    \"events\": {},", first.fingerprint.events);
    let _ = writeln!(
        out,
        "    \"fetches\": {},",
        first.counter(names::CLIENT_FETCHES)
    );
    let _ = writeln!(out, "    \"executions\": {},", first.summary.executions);
    let _ = writeln!(out, "    \"app_latency_samples\": {},", first.app_samples);
    let _ = writeln!(
        out,
        "    \"summary_ap_cpu_mean\": {},",
        json_number(first.summary.ap_cpu_mean)
    );
    let _ = writeln!(
        out,
        "    \"fingerprint\": \"{}\"",
        fingerprint_hex(&first.fingerprint)
    );
    let _ = writeln!(out, "  }},");
    let setups: Vec<String> = host.setups.iter().map(|&s| json_number(s)).collect();
    let _ = writeln!(out, "  \"setup_s\": [{}],", setups.join(", "));
    let passes: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{{\"profiled\": {}, \"suite_s\": {}, \"build_s\": {}, \"run_s\": {}, \"collect_s\": {}, \"summary_s\": {}, \"loop_s\": {}}}",
                o.profile.enabled,
                json_number(o.suite_s),
                json_number(o.build_s),
                json_number(o.run_s),
                json_number(o.collect_s),
                json_number(o.summary_s),
                json_number(o.loop_s)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"passes\": [\n    {}\n  ],", passes.join(",\n    "));
    let probes: Vec<String> = host.loops.iter().map(|l| json_number(l.probe_s)).collect();
    let _ = writeln!(out, "  \"probe_s\": [{}],", probes.join(", "));
    let values: Vec<String> = metrics
        .iter()
        .map(|&(n, v)| {
            let shown = if v.is_finite() {
                json_number(v)
            } else {
                "null".into()
            };
            format!("\"{n}\": {shown}")
        })
        .collect();
    let _ = writeln!(out, "  \"metrics\": {{{}}},", values.join(", "));
    let failures: Vec<String> = failures.iter().map(|f| format!("{f:?}")).collect();
    let _ = writeln!(out, "  \"failed_checks\": [{}],", failures.join(", "));
    let _ = writeln!(out, "  \"spans\": {}", spans.to_json());
    out.push_str("}\n");
    out
}
