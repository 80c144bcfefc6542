//! Converts the criterion harness's line-delimited `BENCH_JSON_OUT`
//! records into the structured `BENCH_obs.json` perf-trajectory report.
//!
//! ```text
//! BENCH_JSON_OUT=/tmp/bench.jsonl cargo bench -p pfair-bench
//! cargo run -p pfair-bench --bin bench_obs -- --in /tmp/bench.jsonl --out BENCH_obs.json
//! ```
//!
//! Repeatable `--metrics <histogram>=<snapshot.json>` additionally folds a
//! histogram aggregate from an obs `--metrics-out` snapshot into the
//! report as a pseudo-benchmark `<histogram>/<file-stem>` (mean ns per
//! sample), so sweep-driver latency rides the same regression gate as the
//! criterion benches:
//!
//! ```text
//! fig3 ... --threads 1 --metrics-out /tmp/fig3.json
//! cargo run -p pfair-bench --bin bench_obs -- --in /tmp/bench.jsonl \
//!     --out /tmp/fresh.json --metrics driver.point_ns=/tmp/fig3.json
//! cargo run -p pfair-bench --bin bench_gate -- --prefix driver.point_ns/ ...
//! ```
//!
//! `--machine <text>` stamps every record from `--in` with the machine that
//! measured it, and `--into <report.json>` starts from an existing report
//! and replaces only the records this run measured, so one bench file can
//! refresh its own rows of `BENCH_obs.json`:
//!
//! ```text
//! BENCH_JSON_OUT=/tmp/inflate.jsonl cargo bench -p pfair-bench --bench inflate_bench
//! cargo run -p pfair-bench --bin bench_obs -- --in /tmp/inflate.jsonl \
//!     --into BENCH_obs.json --out BENCH_obs.json --machine "$(nproc) x $CPU, rustc 1.95.0"
//! ```

use pfair_bench::{fold_obs_histogram, BenchReport};
use std::path::Path;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_values(args: &[String], key: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == key)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let input = arg_value(&args, "--in").unwrap_or_else(|| "/tmp/bench.jsonl".to_string());
    let output = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_obs.json".to_string());

    let jsonl = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {input}: {e}");
            eprintln!("run the benches first: BENCH_JSON_OUT={input} cargo bench -p pfair-bench");
            std::process::exit(1);
        }
    };
    let (mut report, bad) = BenchReport::from_jsonl(&input, &jsonl);
    if bad > 0 {
        eprintln!("warning: skipped {bad} unparseable record line(s)");
    }
    let machine = arg_value(&args, "--machine");
    for record in &mut report.benches {
        record.machine.clone_from(&machine);
    }
    if let Some(base) = arg_value(&args, "--into") {
        let text = match std::fs::read_to_string(&base) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {base}: {e}");
                std::process::exit(2);
            }
        };
        let mut merged: BenchReport = match serde_json::from_str(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {base} is not a bench report: {e}");
                std::process::exit(2);
            }
        };
        for record in report.benches {
            merged.upsert(record);
        }
        report = merged;
    }
    for spec in arg_values(&args, "--metrics") {
        let Some((hist, path)) = spec.split_once('=') else {
            eprintln!("error: --metrics {spec}: expected <histogram>=<snapshot.json>");
            std::process::exit(2);
        };
        let label = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("snapshot")
            .to_string();
        let snap = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match fold_obs_histogram(&mut report, &snap, hist, &label) {
            Ok(rec) => eprintln!(
                "folded {}: {:.0} ns/sample over {} sample(s)",
                rec.name, rec.ns_per_iter, rec.throughput_elems
            ),
            Err(e) => {
                eprintln!("error: --metrics {spec}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::write(&output, report.to_json()) {
        eprintln!("error: cannot write {output}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "{} benchmark record(s) written to {output}",
        report.benches.len()
    );
}
