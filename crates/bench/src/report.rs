//! The `BENCH_obs.json` writer.
//!
//! The criterion harness appends one JSON record per benchmark to the file
//! named by `BENCH_JSON_OUT` while `cargo bench` runs. This module folds
//! those line-delimited records into a single structured `BENCH_obs.json`
//! report (last run wins per benchmark name), so the repo accumulates a
//! machine-readable perf trajectory:
//!
//! ```text
//! BENCH_JSON_OUT=/tmp/bench.jsonl cargo bench -p pfair-bench
//! cargo run -p pfair-bench --bin bench_obs -- --in /tmp/bench.jsonl
//! ```

use serde::{Deserialize, Serialize, Value};

/// One benchmark's measurement.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct BenchRecord {
    /// Benchmark label (`group/function/param`).
    pub name: String,
    /// Median wall time per iteration.
    pub ns_per_iter: f64,
    /// Declared elements per iteration (0 when no throughput was set).
    pub throughput_elems: u64,
    /// The machine that measured this record (CPU model, core count,
    /// rustc), when the refresh that wrote it named one.
    pub machine: Option<String>,
}

/// Written by hand so a record without a machine serializes without a
/// `"machine": null` field.
impl Serialize for BenchRecord {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("ns_per_iter".to_string(), self.ns_per_iter.to_value()),
            (
                "throughput_elems".to_string(),
                self.throughput_elems.to_value(),
            ),
        ];
        if let Some(machine) = &self.machine {
            fields.push(("machine".to_string(), machine.to_value()));
        }
        Value::Obj(fields)
    }
}

/// The `BENCH_obs.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Where the raw records came from.
    pub source: String,
    /// One entry per benchmark, sorted by name; re-runs of the same
    /// benchmark keep only the latest record.
    pub benches: Vec<BenchRecord>,
}

impl BenchReport {
    /// Folds line-delimited criterion records into a report. Lines that
    /// fail to parse are counted, not fatal (a crashed bench run must not
    /// invalidate the records before it).
    pub fn from_jsonl(source: &str, jsonl: &str) -> (Self, usize) {
        let mut benches: Vec<BenchRecord> = Vec::new();
        let mut bad = 0usize;
        for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
            match serde_json::from_str::<BenchRecord>(line) {
                Ok(r) => {
                    benches.retain(|b| b.name != r.name);
                    benches.push(r);
                }
                Err(_) => bad += 1,
            }
        }
        benches.sort_by(|a, b| a.name.cmp(&b.name));
        (
            BenchReport {
                source: source.to_string(),
                benches,
            },
            bad,
        )
    }

    /// Adds `record`, replacing any record of the same name, and keeps the
    /// list sorted by name.
    pub fn upsert(&mut self, record: BenchRecord) {
        self.benches.retain(|b| b.name != record.name);
        self.benches.push(record);
        self.benches.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

/// Compares a fresh bench report against a committed baseline and returns
/// one human-readable line per regression: a benchmark whose name starts
/// with any of the comma-separated `prefix` entries (e.g.
/// `"engine_slots/,engine_setup/"`; empty gates everything), exists in
/// both reports, and got slower by more than `tolerance` (e.g. `0.25` =
/// fail anything ≥ 25 % slower than baseline).
///
/// Benchmarks present on only one side are ignored — new benches must not
/// fail the gate, and a renamed bench shows up as a baseline-only leftover
/// the next `bench_obs` refresh cleans out. Speedups never fail.
pub fn check_regressions(
    baseline: &BenchReport,
    fresh: &BenchReport,
    prefix: &str,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline
        .benches
        .iter()
        .filter(|b| prefix_matches(prefix, &b.name))
    {
        let Some(new) = fresh.benches.iter().find(|b| b.name == base.name) else {
            continue;
        };
        if base.ns_per_iter <= 0.0 {
            continue;
        }
        let ratio = new.ns_per_iter / base.ns_per_iter;
        if ratio > 1.0 + tolerance {
            failures.push(format!(
                "{}: {:.0} ns/iter vs baseline {:.0} ns/iter ({:+.1} %)",
                base.name,
                new.ns_per_iter,
                base.ns_per_iter,
                (ratio - 1.0) * 100.0
            ));
        }
    }
    failures
}

/// Does `name` fall under the comma-separated prefix list `prefix`?
/// A blank list (or one that is all separators/whitespace) matches
/// everything; surrounding whitespace per entry is ignored.
pub fn prefix_matches(prefix: &str, name: &str) -> bool {
    let mut saw_entry = false;
    for p in prefix.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        saw_entry = true;
        if name.starts_with(p) {
            return true;
        }
    }
    !saw_entry
}

/// Minimal view of an obs `--metrics-out` snapshot: only the histogram
/// aggregates the perf gate consumes (unknown fields are ignored).
#[derive(Deserialize)]
struct ObsSnapshot {
    histograms: Vec<ObsHistogram>,
}

/// One histogram's aggregate from the snapshot.
#[derive(Deserialize)]
struct ObsHistogram {
    name: String,
    count: u64,
    sum: u64,
}

/// Folds one histogram aggregate from an obs `--metrics-out` snapshot
/// into the report as a pseudo-benchmark named `<hist>/<label>` with
/// `ns_per_iter = sum / count` (the histogram must carry nanoseconds,
/// as `driver.point_ns` does) and `throughput_elems = count`.
///
/// This puts sweep-driver latency on the same perf trajectory as the
/// criterion benches, so `bench_gate --prefix driver.point_ns/` can gate
/// it against the committed baseline. Re-folding the same `<hist>/<label>`
/// replaces the previous record.
pub fn fold_obs_histogram(
    report: &mut BenchReport,
    snapshot_json: &str,
    hist: &str,
    label: &str,
) -> Result<BenchRecord, String> {
    let snap: ObsSnapshot = serde_json::from_str(snapshot_json)
        .map_err(|e| format!("not an obs metrics snapshot: {e}"))?;
    let h = snap
        .histograms
        .iter()
        .find(|h| h.name == hist)
        .ok_or_else(|| format!("snapshot has no histogram named {hist:?}"))?;
    if h.count == 0 {
        return Err(format!("histogram {hist:?} recorded no samples"));
    }
    let record = BenchRecord {
        name: format!("{hist}/{label}"),
        ns_per_iter: h.sum as f64 / h.count as f64,
        throughput_elems: h.count,
        machine: None,
    };
    report.upsert(record.clone());
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_and_dedups_records() {
        let jsonl = r#"{"name":"engine/step/50","ns_per_iter":120.5,"throughput_elems":50}
{"name":"sched/tick/50","ns_per_iter":80.0,"throughput_elems":0}
not json
{"name":"engine/step/50","ns_per_iter":110.0,"throughput_elems":50}
"#;
        let (report, bad) = BenchReport::from_jsonl("test", jsonl);
        assert_eq!(bad, 1);
        assert_eq!(report.benches.len(), 2);
        let engine = &report.benches[0];
        assert_eq!(engine.name, "engine/step/50");
        assert_eq!(engine.ns_per_iter, 110.0, "latest record wins");
    }

    fn report(entries: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            source: "test".into(),
            benches: entries
                .iter()
                .map(|&(name, ns)| BenchRecord {
                    name: name.into(),
                    ns_per_iter: ns,
                    throughput_elems: 0,
                    machine: None,
                })
                .collect(),
        }
    }

    #[test]
    fn regression_gate_flags_only_slowdowns_past_tolerance() {
        let base = report(&[
            ("engine_slots/PD2/100x4", 1000.0),
            ("engine_slots/PF/100x4", 1000.0),
            ("engine_slots/EPDF/100x4", 1000.0),
            ("other/bench", 10.0),
        ]);
        let fresh = report(&[
            ("engine_slots/PD2/100x4", 1240.0), // within 25 %
            ("engine_slots/PF/100x4", 1300.0),  // regression
            ("engine_slots/EPDF/100x4", 500.0), // speedup
            ("engine_slots/new/bench", 9999.0), // new: ignored
            ("other/bench", 100.0),             // outside prefix
        ]);
        let fails = check_regressions(&base, &fresh, "engine_slots/", 0.25);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].starts_with("engine_slots/PF/100x4:"),
            "{}",
            fails[0]
        );
        // Prefix "" gates everything.
        let all = check_regressions(&base, &fresh, "", 0.25);
        assert_eq!(all.len(), 2, "{all:?}");
    }

    #[test]
    fn regression_gate_takes_comma_separated_prefixes() {
        let base = report(&[
            ("engine_slots/PD2/100x4", 1000.0),
            ("engine_setup/100x4", 1000.0),
            ("driver.point_ns/fig3", 1000.0),
        ]);
        let fresh = report(&[
            ("engine_slots/PD2/100x4", 2000.0),
            ("engine_setup/100x4", 2000.0),
            ("driver.point_ns/fig3", 2000.0),
        ]);
        let fails = check_regressions(&base, &fresh, "engine_slots/,engine_setup/", 0.25);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails.iter().all(|f| !f.contains("driver.point_ns")));
        // Stray separators and spaces are harmless.
        let fails = check_regressions(&base, &fresh, " engine_setup/, ", 0.25);
        assert_eq!(fails.len(), 1, "{fails:?}");
    }

    #[test]
    fn obs_histogram_folds_into_the_report_and_replaces_on_refold() {
        let snap = r#"{"counters":[{"name":"c","value":1}],"histograms":[
            {"name":"driver.point_ns","count":4,"sum":8000,"min":1,"max":4000,"bounds":[],"counts":[]},
            {"name":"other.hist","count":1,"sum":5}]}"#;
        let mut rep = report(&[("engine_slots/PD2/100x4", 1000.0)]);
        let rec = fold_obs_histogram(&mut rep, snap, "driver.point_ns", "fig3").unwrap();
        assert_eq!(rec.name, "driver.point_ns/fig3");
        assert_eq!(rec.ns_per_iter, 2000.0, "mean = sum / count");
        assert_eq!(rec.throughput_elems, 4);
        assert_eq!(rep.benches.len(), 2);
        assert_eq!(rep.benches[0].name, "driver.point_ns/fig3", "sorted in");

        // Re-folding replaces instead of duplicating.
        let snap2 = snap.replace("8000", "12000");
        let rec = fold_obs_histogram(&mut rep, &snap2, "driver.point_ns", "fig3").unwrap();
        assert_eq!(rec.ns_per_iter, 3000.0);
        assert_eq!(rep.benches.len(), 2);

        // Missing histogram and empty histogram are loud errors.
        assert!(fold_obs_histogram(&mut rep, snap, "nope", "x").is_err());
        let empty = snap.replace("\"count\":4", "\"count\":0");
        assert!(fold_obs_histogram(&mut rep, &empty, "driver.point_ns", "x").is_err());
    }

    #[test]
    fn regression_gate_ignores_missing_and_degenerate_baselines() {
        let base = report(&[("a", 0.0), ("gone", 50.0)]);
        let fresh = report(&[("a", 1e9)]);
        assert!(check_regressions(&base, &fresh, "", 0.25).is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let (report, _) = BenchReport::from_jsonl(
            "t",
            r#"{"name":"a","ns_per_iter":1.5,"throughput_elems":3}"#,
        );
        let back: BenchReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn machine_is_written_only_when_known_and_upsert_replaces_by_name() {
        let mut rep = report(&[("a", 1.0), ("b", 2.0)]);
        assert!(!rep.to_json().contains("machine"));
        rep.upsert(BenchRecord {
            name: "a".into(),
            ns_per_iter: 3.0,
            throughput_elems: 0,
            machine: Some("2 x Test CPU, rustc 1.0".into()),
        });
        assert_eq!(rep.benches.len(), 2);
        assert_eq!(rep.benches[0].ns_per_iter, 3.0);
        let json = rep.to_json();
        assert_eq!(json.matches("\"machine\"").count(), 1, "{json}");
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }
}
