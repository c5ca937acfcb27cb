//! What a run reports: the host stamp, one measured value per metric with
//! its sample count and quartiles, the per-layer table, and the two output
//! forms (a document for `--out`, one JSON line for the driver).

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::metrics;
use crate::run::Timing;
use crate::stats::Summary;
use crate::trace::LayerTotal;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (windows, set-ups or pooled latencies).
    pub n: usize,
    /// Quartiles across windows or set-ups, where there are several.
    pub quartiles: Option<(f64, f64)>,
}

impl Measured {
    pub fn single(name: &str, unit: &'static str, value: f64) -> Measured {
        Measured {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            quartiles: None,
        }
    }

    /// The median of per-window (or per-set-up) values, with quartiles.
    pub fn from_summary(name: &str, unit: &'static str, s: Summary) -> Measured {
        Measured {
            name: name.to_string(),
            unit,
            value: s.median,
            n: s.n,
            quartiles: Some((s.q1, s.q3)),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::from(self.value)),
            ("unit", Json::from(self.unit)),
            ("n", Json::from(self.n as u64)),
        ];
        if let Some((q1, q3)) = self.quartiles {
            fields.push(("q1", Json::from(q1)));
            fields.push(("q3", Json::from(q3)));
        }
        Json::obj(fields)
    }
}

/// The result of one workload run, traced or not.
pub struct WorkloadReport {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Run shape and gate counts, as (key, value) notes.
    pub notes: Vec<(String, Json)>,
    pub metrics: Vec<Measured>,
    /// Per-name span totals of a traced run.
    pub layers: BTreeMap<&'static str, LayerTotal>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (name → value and unit).
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                    )
                })),
            ),
        ])
        .to_string()
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced: per-layer"
            } else {
                "end to end"
            }
        );
        for m in &self.metrics {
            let spread = match m.quartiles {
                Some((q1, q3)) => format!("  [q1 {q1:.6}  q3 {q3:.6}  n={}]", m.n),
                None => format!("  [n={}]", m.n),
            };
            println!("{:<44} {:>18.6} {:<12}{}", m.name, m.value, m.unit, spread);
        }
        if !self.layers.is_empty() {
            println!("-- spans: name, spans, items, total us, self us, median us --");
            for (name, t) in &self.layers {
                println!(
                    "{:<44} {:>9} {:>12} {:>14.1} {:>14.1} {:>12.2}",
                    name,
                    t.spans,
                    t.count,
                    t.total_ns as f64 / 1e3,
                    t.self_ns as f64 / 1e3,
                    t.median_ns as f64 / 1e3
                );
            }
        }
        println!(
            "attempted {}  failed {}{}",
            self.attempted,
            self.failed,
            self.first_error
                .as_ref()
                .map(|e| format!("  first failure: {e}"))
                .unwrap_or_default()
        );
    }

    pub fn to_json(&self) -> Json {
        let why = metrics::workload(self.workload).map_or("", |w| w.why);
        let mut fields = vec![
            ("workload".to_string(), Json::from(self.workload)),
            ("why".to_string(), Json::from(why)),
            ("trace".to_string(), Json::from(self.traced)),
            ("correct".to_string(), Json::from(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            (
                "first_error".to_string(),
                self.first_error.as_deref().map_or(Json::Null, Json::from),
            ),
        ];
        fields.extend(self.notes.iter().cloned());
        fields.push((
            "metrics".to_string(),
            Json::obj(self.metrics.iter().map(|m| (m.name.clone(), m.to_json()))),
        ));
        if !self.layers.is_empty() {
            fields.push((
                "layers".to_string(),
                Json::obj(self.layers.iter().map(|(name, t)| {
                    (
                        *name,
                        Json::obj([
                            ("spans", Json::from(t.spans)),
                            ("items", Json::from(t.count)),
                            ("total_us", Json::from(t.total_ns as f64 / 1e3)),
                            ("self_us", Json::from(t.self_ns as f64 / 1e3)),
                            ("median_us", Json::from(t.median_ns as f64 / 1e3)),
                        ]),
                    )
                })),
            ));
        }
        Json::Obj(fields)
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_features() -> Vec<Json> {
    let mut found: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!(
            "ssse3",
            "sse4.1",
            "popcnt",
            "bmi2",
            "avx2",
            "avx512f",
            "avx512bw",
            "avx512vbmi"
        );
    }
    found.into_iter().map(Json::from).collect()
}

/// Where and on what the numbers were taken. A checkout that is not a
/// git repository (the acceptance driver's) stamps `unknown`.
pub fn stamp(seed: u64, traced: bool) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let timing = if traced {
        Timing::traced()
    } else {
        Timing::fixed()
    };
    Json::obj([
        ("benchmark", Json::from("etsqp-spine")),
        ("seed", Json::from(seed)),
        ("trace", Json::from(traced)),
        (
            "git_revision",
            Json::from(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "simd_backend",
            Json::from(etsqp_simd::backend().to_string()),
        ),
        ("cpu_features", Json::Arr(cpu_features())),
        ("cpu_model", Json::from(cpu_model)),
        (
            "rustc",
            Json::from(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("warmup_s", Json::from(timing.warmup.as_secs_f64())),
        ("window_s", Json::from(timing.window.as_secs_f64())),
        ("windows", Json::from(timing.windows as u64)),
        ("claim", Json::Null),
    ])
}

/// The `--out` document: the stamp and one entry per workload.
pub fn document(stamp: Json, workloads: Vec<Json>) -> Json {
    let Json::Obj(mut fields) = stamp else {
        unreachable!("stamp is an object");
    };
    fields.push(("workloads".to_string(), Json::Arr(workloads)));
    Json::Obj(fields)
}
