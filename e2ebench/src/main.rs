//! `e2ebench --workload <case4|heavy16|light16|sweep4> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a run manifest, a human-readable metric table, and as its last
//! line one JSON object with the run's verdict and metrics. Exits 2 on a
//! malformed command line.

use parbs_e2ebench::host::{self, HostWindow};
use parbs_e2ebench::run::{run, Options};
use parbs_e2ebench::workloads::{Scale, Workload};
use parbs_e2ebench::{json_number, json_str, result_line};

fn usage(problem: &str) -> ! {
    eprintln!("e2ebench: {problem}");
    eprintln!(
        "usage: e2ebench --workload <case4|heavy16|light16|sweep4> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad value '{value}' for {flag}"))
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| bad(flag, value)))
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad(flag, value))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| bad(flag, value)),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                });
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Options {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        scale: Scale::BENCH,
    }
}

fn main() {
    let opts = parse_options();
    let window = HostWindow::open();
    let outcome = run(&opts);
    let mut manifest: Vec<(&str, String)> = vec![
        ("workload", json_str(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("seconds", json_number(opts.seconds)),
        ("trace", opts.trace.to_string()),
        ("git_rev", json_str(&host::git_rev())),
        ("nproc", parbs_sim::default_jobs().to_string()),
        ("rustc", json_str(&host::rustc_version())),
        ("instructions_per_thread", opts.scale.target(opts.workload).to_string()),
        ("setup_repeats", outcome.setup_repeats.to_string()),
        ("rounds", outcome.round_rates.len().to_string()),
        (
            "round_mcycles_per_s",
            format!(
                "[{}]",
                outcome.round_rates.iter().map(|&v| json_number(v)).collect::<Vec<_>>().join(", ")
            ),
        ),
        (
            "round_host_factors",
            format!(
                "[{}]",
                outcome
                    .round_host_factors
                    .iter()
                    .map(|&v| json_number(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("failed_frac", json_number(outcome.failed_frac())),
    ];
    manifest.push(("jobs_per_round", outcome.jobs_per_round.to_string()));
    manifest.extend(window.fields());
    let fields: Vec<String> =
        manifest.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("{{\"manifest\": {{{}}}}}", fields.join(", "));
    let shown = if opts.trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in shown {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("# {:<28} {:>16.6} ratio", "failed_frac", outcome.failed_frac());
    println!("{}", result_line(&outcome, opts.trace));
}
