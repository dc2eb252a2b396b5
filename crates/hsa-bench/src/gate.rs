//! The perf-regression gate: committed baseline `BENCH_*.json` artefacts
//! versus a fresh run, with a configurable relative tolerance.
//!
//! The gate answers one question per metric: *did this hot path get more
//! than `tolerance`× slower than the committed baseline?* Tolerances are
//! deliberately generous — shared CI runners are noisy and the point is to
//! catch accidental algorithmic regressions (a 2× slowdown from a lost
//! cache or an O(n²) slip), not 5 % jitter. Speed-ups never fail the gate;
//! they are reported so a better baseline can be committed.
//!
//! Comparisons are guarded structurally first: schema versions must match
//! (enforced by [`BenchReport::load`]) and the workload `profile` must be
//! identical — a `"quick"` run gated against `"full"` baselines would
//! compare different workloads and is rejected outright. A baseline
//! recorded on a different CPU count still compares, with a `note:` line
//! saying so.

use crate::report::BenchReport;
use std::fmt::Write as _;
use std::path::Path;

/// Gate configuration.
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// Maximum allowed `current / baseline` ratio per metric. Values
    /// above this fail the gate.
    pub tolerance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { tolerance: 4.0 }
    }
}

/// Verdict for one compared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateStatus {
    /// Within tolerance.
    Ok,
    /// Slower than `baseline × tolerance`.
    Regressed,
    /// Present in the baseline, absent from the current run.
    Missing,
}

/// One percentile compared on a metric (present when both the baseline
/// and the current run carry it).
#[derive(Clone, Copy, Debug)]
pub struct PercentileFinding {
    /// Baseline per-op percentile, nanoseconds.
    pub baseline_ns: f64,
    /// Current per-op percentile, nanoseconds.
    pub current_ns: f64,
    /// `current / baseline`, judged by the same tolerance as ns/op.
    pub ratio: f64,
}

/// One row of the regression table.
#[derive(Clone, Debug)]
pub struct GateFinding {
    /// Report name (artefact stem).
    pub report: String,
    /// Metric name within the report.
    pub metric: String,
    /// Baseline ns/op.
    pub baseline_ns_per_op: f64,
    /// Current ns/op (0 when [`GateStatus::Missing`]).
    pub current_ns_per_op: f64,
    /// `current / baseline` mean ratio (0 when missing).
    pub ratio: f64,
    /// The p50 comparison, when both sides measured it.
    pub p50: Option<PercentileFinding>,
    /// The p99 comparison, when both sides measured it.
    pub p99: Option<PercentileFinding>,
    /// The verdict (worst of the mean and percentile ratios).
    pub status: GateStatus,
}

impl GateFinding {
    /// The worst of the mean and percentile ratios — what the verdict and
    /// the table ordering use, so a tail-only regression surfaces first.
    pub fn worst_ratio(&self) -> f64 {
        [self.p50, self.p99]
            .into_iter()
            .flatten()
            .fold(self.ratio, |acc, p| acc.max(p.ratio))
    }
}

/// Everything one gate run found: per-metric findings, structural errors
/// (unreadable files, profile mismatches, missing artefacts) and notes.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// Per-metric comparison rows.
    pub findings: Vec<GateFinding>,
    /// Structural failures — any entry fails the gate.
    pub errors: Vec<String>,
    /// Caveats on the comparison (a CPU-count mismatch) — printed, never
    /// failing.
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// True when no metric regressed and no structural error occurred.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.findings.iter().all(|f| f.status == GateStatus::Ok)
    }

    /// Number of regressed or missing metrics.
    pub fn num_failures(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.status != GateStatus::Ok)
            .count()
    }

    /// Renders the human-readable regression table (one line per metric,
    /// worst ratios first, errors appended).
    pub fn render_text(&self, cfg: &GateConfig) -> String {
        let mut rows = self.findings.clone();
        rows.sort_by(|a, b| b.worst_ratio().total_cmp(&a.worst_ratio()));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<28} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
            "report", "metric", "baseline ns/op", "current ns/op", "ratio", "p50", "p99"
        );
        out.push_str(&"-".repeat(118));
        out.push('\n');
        // Percentile columns print the ratio when both sides measured the
        // percentile and a dash otherwise, so pre-percentile artefacts
        // still render.
        let pcol = |p: &Option<PercentileFinding>| match p {
            Some(p) => format!("{:.2}x", p.ratio),
            None => "-".to_string(),
        };
        for f in &rows {
            let verdict = match f.status {
                GateStatus::Ok => "ok",
                GateStatus::Regressed => "REGRESSED",
                GateStatus::Missing => "MISSING",
            };
            let _ = writeln!(
                out,
                "{:<20} {:<28} {:>14.1} {:>14.1} {:>7.2}x {:>8} {:>8}  {verdict}",
                f.report,
                f.metric,
                f.baseline_ns_per_op,
                f.current_ns_per_op,
                f.ratio,
                pcol(&f.p50),
                pcol(&f.p99),
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "error: {e}");
        }
        let _ = writeln!(
            out,
            "{} metric(s) compared, {} failure(s), tolerance {:.2}x — {}",
            self.findings.len(),
            self.num_failures() + self.errors.len(),
            cfg.tolerance,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Compares one current report against its baseline. Every baseline
/// metric must exist in the current report and stay within tolerance;
/// metrics newly added to the current report are ignored (they have no
/// baseline yet).
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    cfg: &GateConfig,
) -> GateOutcome {
    let mut out = GateOutcome::default();
    if baseline.profile != current.profile {
        out.errors.push(format!(
            "{}: profile mismatch — baseline `{}` vs current `{}` (workloads differ, refusing to compare)",
            baseline.name, baseline.profile, current.profile
        ));
        return out;
    }
    if baseline.env.debug_assertions != current.env.debug_assertions {
        out.errors.push(format!(
            "{}: build mismatch — baseline debug_assertions={} vs current {} (a debug run gated against release numbers reports fake regressions, refusing to compare)",
            baseline.name, baseline.env.debug_assertions, current.env.debug_assertions
        ));
        return out;
    }
    if baseline.env.cpus != current.env.cpus {
        out.notes.push(format!(
            "{}: cpu mismatch — baseline recorded on {} cpu(s), current run on {} (thread-sensitive metrics may shift)",
            baseline.name, baseline.env.cpus, current.env.cpus
        ));
    }
    for base in &baseline.metrics {
        match current.find_metric(&base.name) {
            None => out.findings.push(GateFinding {
                report: baseline.name.clone(),
                metric: base.name.clone(),
                baseline_ns_per_op: base.ns_per_op,
                current_ns_per_op: 0.0,
                ratio: 0.0,
                p50: None,
                p99: None,
                status: GateStatus::Missing,
            }),
            Some(cur) => {
                // A baseline that gates a percentile must keep being fed
                // one: silently dropping the measurement would un-gate the
                // tail, which is exactly the regression class this exists
                // to catch. (The reverse — a *new* percentile with no
                // baseline yet — is fine, like any new metric.)
                for (pname, b, c) in [
                    ("p50_ns", base.p50_ns, cur.p50_ns),
                    ("p99_ns", base.p99_ns, cur.p99_ns),
                ] {
                    if b.is_some() && c.is_none() {
                        out.errors.push(format!(
                            "{}: metric `{}` lost its {pname} — the baseline gates tail latency but the current run stopped emitting it",
                            baseline.name, base.name
                        ));
                    }
                }
                let pair = |b: Option<f64>, c: Option<f64>| {
                    b.zip(c).map(|(b, c)| PercentileFinding {
                        baseline_ns: b,
                        current_ns: c,
                        ratio: c / b,
                    })
                };
                let mut finding = GateFinding {
                    report: baseline.name.clone(),
                    metric: base.name.clone(),
                    baseline_ns_per_op: base.ns_per_op,
                    current_ns_per_op: cur.ns_per_op,
                    ratio: cur.ns_per_op / base.ns_per_op,
                    p50: pair(base.p50_ns, cur.p50_ns),
                    p99: pair(base.p99_ns, cur.p99_ns),
                    status: GateStatus::Ok,
                };
                if finding.worst_ratio() > cfg.tolerance {
                    finding.status = GateStatus::Regressed;
                }
                out.findings.push(finding);
            }
        }
    }
    out
}

/// Lists the `BENCH_*.json` files in `dir`, sorted by name.
pub fn bench_artefacts(dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Gates every baseline artefact in `baseline_dir` against its same-named
/// counterpart in `current_dir`. A baseline without a counterpart is a
/// structural error (an experiment silently stopped emitting); extra
/// current artefacts are fine (new experiments without a baseline yet).
pub fn gate_directories(baseline_dir: &Path, current_dir: &Path, cfg: &GateConfig) -> GateOutcome {
    let mut out = GateOutcome::default();
    let baselines = match bench_artefacts(baseline_dir) {
        Ok(b) => b,
        Err(e) => {
            out.errors
                .push(format!("cannot read {}: {e}", baseline_dir.display()));
            return out;
        }
    };
    if baselines.is_empty() {
        out.errors.push(format!(
            "no BENCH_*.json baselines under {}",
            baseline_dir.display()
        ));
        return out;
    }
    for base_path in baselines {
        let baseline = match BenchReport::load(&base_path) {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(e);
                continue;
            }
        };
        let cur_path = current_dir.join(base_path.file_name().expect("artefact file name"));
        if !cur_path.exists() {
            out.errors.push(format!(
                "baseline {} has no counterpart in {}",
                baseline.file_name(),
                current_dir.display()
            ));
            continue;
        }
        match BenchReport::load(&cur_path) {
            Ok(current) => {
                let one = compare_reports(&baseline, &current, cfg);
                out.findings.extend(one.findings);
                out.errors.extend(one.errors);
                out.notes.extend(one.notes);
            }
            Err(e) => out.errors.push(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(profile: &str, metrics: &[(&str, u64)]) -> BenchReport {
        let mut r = BenchReport::new("demo", "t0", "demo", profile, 1);
        for (name, ns) in metrics {
            r.metric(*name, 1, *ns);
        }
        r
    }

    #[test]
    fn identical_reports_pass() {
        let base = report("quick", &[("a", 1_000), ("b", 2_000)]);
        let out = compare_reports(&base, &base, &GateConfig::default());
        assert!(out.passed());
        assert_eq!(out.findings.len(), 2);
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        // The acceptance-criteria scenario: a hot path gets 2× slower
        // while the gate runs at a 1.5× tolerance — it must fail, and the
        // regression table must name the culprit.
        let base = report("quick", &[("hot_path", 1_000_000), ("cold_path", 500_000)]);
        let current = report("quick", &[("hot_path", 2_000_000), ("cold_path", 500_000)]);
        let cfg = GateConfig { tolerance: 1.5 };
        let out = compare_reports(&base, &current, &cfg);
        assert!(!out.passed());
        assert_eq!(out.num_failures(), 1);
        let bad = out
            .findings
            .iter()
            .find(|f| f.status == GateStatus::Regressed)
            .unwrap();
        assert_eq!(bad.metric, "hot_path");
        assert!((bad.ratio - 2.0).abs() < 1e-9);
        let table = out.render_text(&cfg);
        assert!(table.contains("hot_path") && table.contains("REGRESSED"));
        assert!(table.contains("FAIL"));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let base = report("quick", &[("a", 1_000_000)]);
        let current = report("quick", &[("a", 1_900_000)]);
        let out = compare_reports(&base, &current, &GateConfig { tolerance: 2.0 });
        assert!(out.passed());
    }

    #[test]
    fn speedup_never_fails() {
        let base = report("quick", &[("a", 1_000_000)]);
        let current = report("quick", &[("a", 1_000)]);
        let out = compare_reports(&base, &current, &GateConfig { tolerance: 1.1 });
        assert!(out.passed());
    }

    #[test]
    fn missing_metric_fails() {
        let base = report("quick", &[("a", 1_000), ("gone", 1_000)]);
        let current = report("quick", &[("a", 1_000)]);
        let out = compare_reports(&base, &current, &GateConfig::default());
        assert!(!out.passed());
        assert!(out
            .findings
            .iter()
            .any(|f| f.metric == "gone" && f.status == GateStatus::Missing));
    }

    fn report_with_tails(profile: &str, metrics: &[(&str, u64, u64, u64)]) -> BenchReport {
        let mut r = BenchReport::new("demo", "t0", "demo", profile, 1);
        for (name, ns, p50, p99) in metrics {
            r.metric_with_percentiles(*name, 1, *ns, *p50, *p99);
        }
        r
    }

    #[test]
    fn p99_regression_fails_even_when_the_mean_is_flat() {
        // The tentpole scenario: identical means, 3× worse tail.
        let base = report_with_tails("quick", &[("svc", 1_000_000, 800_000, 1_200_000)]);
        let current = report_with_tails("quick", &[("svc", 1_000_000, 800_000, 3_600_000)]);
        let cfg = GateConfig { tolerance: 2.0 };
        let out = compare_reports(&base, &current, &cfg);
        assert!(!out.passed());
        let f = &out.findings[0];
        assert_eq!(f.status, GateStatus::Regressed);
        assert!((f.ratio - 1.0).abs() < 1e-9, "mean is flat");
        assert!((f.p99.unwrap().ratio - 3.0).abs() < 1e-9);
        assert!((f.worst_ratio() - 3.0).abs() < 1e-9);
        let table = out.render_text(&cfg);
        assert!(table.contains("3.00x") && table.contains("REGRESSED"));
    }

    #[test]
    fn percentiles_within_tolerance_pass() {
        let base = report_with_tails("quick", &[("svc", 1_000_000, 800_000, 1_200_000)]);
        let current = report_with_tails("quick", &[("svc", 1_100_000, 900_000, 1_500_000)]);
        assert!(compare_reports(&base, &current, &GateConfig { tolerance: 2.0 }).passed());
    }

    #[test]
    fn losing_a_gated_percentile_is_a_structural_error() {
        let base = report_with_tails("quick", &[("svc", 1_000_000, 800_000, 1_200_000)]);
        let current = report("quick", &[("svc", 1_000_000)]);
        let out = compare_reports(&base, &current, &GateConfig::default());
        assert!(!out.passed());
        assert_eq!(out.errors.len(), 2, "both p50 and p99 were lost");
        assert!(out.errors[0].contains("p50_ns") && out.errors[1].contains("p99_ns"));
    }

    #[test]
    fn old_baselines_without_percentiles_still_gate_and_render() {
        // Pre-percentile baseline vs an instrumented current run: the new
        // percentiles have no baseline, so only the mean is judged, and
        // the table renders dashes for the absent columns.
        let base = report("quick", &[("svc", 1_000_000)]);
        let current = report_with_tails("quick", &[("svc", 1_000_000, 800_000, 1_200_000)]);
        let cfg = GateConfig::default();
        let out = compare_reports(&base, &current, &cfg);
        assert!(out.passed());
        assert!(out.findings[0].p50.is_none() && out.findings[0].p99.is_none());
        let row = out
            .render_text(&cfg)
            .lines()
            .find(|l| l.starts_with("demo"))
            .unwrap()
            .to_string();
        assert!(
            row.contains(" - "),
            "dash columns for absent percentiles: {row}"
        );
    }

    #[test]
    fn profile_mismatch_is_a_structural_error() {
        let base = report("full", &[("a", 1_000)]);
        let current = report("quick", &[("a", 1_000)]);
        let out = compare_reports(&base, &current, &GateConfig::default());
        assert!(!out.passed());
        assert!(out.errors[0].contains("profile mismatch"));
    }

    #[test]
    fn debug_vs_release_build_is_a_structural_error() {
        let base = report("quick", &[("a", 1_000)]);
        let mut current = report("quick", &[("a", 1_000)]);
        current.env.debug_assertions = !base.env.debug_assertions;
        let out = compare_reports(&base, &current, &GateConfig::default());
        assert!(!out.passed());
        assert!(out.errors[0].contains("build mismatch"));
    }

    #[test]
    fn cpu_count_mismatch_is_a_note_not_a_failure() {
        let base = report("quick", &[("a", 1_000)]);
        let mut current = report("quick", &[("a", 1_000)]);
        assert!(compare_reports(&base, &current, &GateConfig::default())
            .notes
            .is_empty());
        current.env.cpus = base.env.cpus + 1;
        let cfg = GateConfig::default();
        let out = compare_reports(&base, &current, &cfg);
        assert!(out.passed(), "a cpu mismatch must not fail the gate");
        assert!(out.errors.is_empty());
        assert_eq!(out.notes.len(), 1);
        assert!(out.notes[0].contains("cpu mismatch"));
        let table = out.render_text(&cfg);
        assert!(table.contains("note: demo: cpu mismatch") && table.contains("PASS"));
    }

    #[test]
    fn gate_directories_round_trip() {
        let root = std::env::temp_dir().join("hsa-bench-gate-test");
        let _ = std::fs::remove_dir_all(&root);
        let (base_dir, cur_dir) = (root.join("base"), root.join("cur"));
        let base = report("quick", &[("a", 1_000_000)]);
        base.write_json(&base_dir).unwrap();
        // Self-comparison passes…
        base.write_json(&cur_dir).unwrap();
        assert!(gate_directories(&base_dir, &cur_dir, &GateConfig::default()).passed());
        // …a 2× slowdown at tolerance 1.5 fails…
        let slow = report("quick", &[("a", 2_000_000)]);
        slow.write_json(&cur_dir).unwrap();
        let out = gate_directories(&base_dir, &cur_dir, &GateConfig { tolerance: 1.5 });
        assert!(!out.passed());
        // …and a missing counterpart is a structural error.
        std::fs::remove_file(cur_dir.join("BENCH_demo.json")).unwrap();
        let out = gate_directories(&base_dir, &cur_dir, &GateConfig::default());
        assert!(!out.passed() && !out.errors.is_empty());
    }

    #[test]
    fn empty_baseline_dir_is_an_error() {
        let dir = std::env::temp_dir().join("hsa-bench-gate-empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = gate_directories(&dir, &dir, &GateConfig::default());
        assert!(!out.passed());
    }
}
