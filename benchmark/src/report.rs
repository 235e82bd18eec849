//! What a run reports: metric definitions, one workload's outcome, the
//! results file.

use crate::spans::{self, Span};
use pf_trace::Json;
use std::collections::BTreeMap;

/// A JSON object from literal keys.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::obj(pairs.map(|(k, v)| (k.to_owned(), v)))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric and the share of the baseline by which it may get
/// worse before `compare` calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "mlups",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "step_ms_p90",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "wall_s",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "restore_ms",
        better: Better::Lower,
        bound: 0.15,
    },
    // Any increase is a regression.
    EndToEnd {
        name: "fail_share",
        better: Better::Lower,
        bound: 0.0,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value, where it is a statistic of samples.
    pub n: Option<usize>,
    /// Quartile distance of those samples over their median.
    pub spread: Option<f64>,
    /// A count that must repeat exactly between runs of one commit.
    pub exact: bool,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            n: None,
            spread: None,
            exact: false,
        }
    }

    pub fn exact(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            exact: true,
            ..Metric::new(name, value, unit)
        }
    }

    /// A statistic of `samples`. Quartiles of fewer than four samples say
    /// nothing, so those carry no spread.
    pub fn of_samples(name: &str, value: f64, unit: &str, samples: &[f64]) -> Metric {
        Metric {
            n: Some(samples.len()),
            spread: (samples.len() >= 4)
                .then(|| crate::stats::spread(samples))
                .flatten(),
            ..Metric::new(name, value, unit)
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

impl Gate {
    pub fn from(name: &str, r: Result<String, String>) -> Gate {
        let (pass, detail) = match r {
            Ok(d) => (true, d),
            Err(d) => (false, d),
        };
        Gate {
            name: name.to_owned(),
            pass,
            detail,
        }
    }
}

/// One workload's result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub workload: String,
    pub metrics: Vec<Metric>,
    pub gates: Vec<Gate>,
    /// Operations: kernel families generated, timed steps, checkpoint sets
    /// written, restores.
    pub attempted: u64,
    pub failed: u64,
    /// Raw timings behind the medians, seconds.
    pub samples: BTreeMap<String, Vec<f64>>,
    pub notes: Vec<String>,
    /// Time of the benchmark's own verification, excluded from `wall_s`.
    pub verify_s: f64,
    /// Traced run only; written to the trace file, not the results file.
    pub spans: Vec<Span>,
    pub pf_trace: Option<Json>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.pass)
    }

    /// A failed gate fails every operation of the workload.
    pub fn settle(&mut self) {
        if self.gates.iter().any(|g| !g.pass) {
            self.failed = self.attempted;
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.push(Metric::new("fail_share", share, "ratio"));
        // The order the results file keeps them in.
        self.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut o = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::str(&m.unit)),
            ];
            if let Some(n) = m.n {
                o.push(("n".to_string(), Json::Num(n as f64)));
            }
            if let Some(s) = m.spread {
                o.push(("spread".to_string(), Json::Num(s)));
            }
            if m.exact {
                o.push(("exact".to_string(), Json::Bool(true)));
            }
            (m.name.clone(), Json::obj(o))
        });
        let gates = self.gates.iter().map(|g| {
            obj([
                ("name", Json::str(&g.name)),
                ("pass", Json::Bool(g.pass)),
                ("detail", Json::str(&g.detail)),
            ])
        });
        let samples = self.samples.iter().map(|(k, v)| {
            (
                k.clone(),
                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
            )
        });
        obj([
            ("workload", Json::str(&self.workload)),
            ("metrics", Json::obj(metrics)),
            ("gates", Json::Arr(gates.collect())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("samples", Json::obj(samples)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            ("verify_s", Json::Num(self.verify_s)),
        ])
    }

    /// Inverse of [`Outcome::to_json`] (spans and the pf-trace snapshot
    /// travel in the trace file).
    pub fn from_json(j: &Json) -> Result<Outcome, String> {
        let need = |key: &str| j.get(key).ok_or_else(|| format!("outcome lacks '{key}'"));
        let mut metrics = Vec::new();
        for (name, m) in need("metrics")?.as_obj().ok_or("'metrics' is no object")? {
            metrics.push(Metric {
                name: name.clone(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric '{name}' lacks a value"))?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metric '{name}' lacks a unit"))?
                    .to_owned(),
                n: m.get("n").and_then(Json::as_u64).map(|n| n as usize),
                spread: m.get("spread").and_then(Json::as_f64),
                exact: m.get("exact").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        let mut gates = Vec::new();
        for g in need("gates")?.as_arr().ok_or("'gates' is no array")? {
            gates.push(Gate {
                name: g
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                pass: g
                    .get("pass")
                    .and_then(Json::as_bool)
                    .ok_or("gate lacks 'pass'")?,
                detail: g
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            });
        }
        let mut samples = BTreeMap::new();
        for (k, v) in need("samples")?.as_obj().ok_or("'samples' is no object")? {
            let xs = v.as_arr().ok_or("samples are no array")?;
            samples.insert(k.clone(), xs.iter().filter_map(Json::as_f64).collect());
        }
        Ok(Outcome {
            workload: need("workload")?
                .as_str()
                .ok_or("'workload' is no string")?
                .to_owned(),
            metrics,
            gates,
            attempted: need("attempted")?
                .as_u64()
                .ok_or("'attempted' is no count")?,
            failed: need("failed")?.as_u64().ok_or("'failed' is no count")?,
            samples,
            notes: need("notes")?
                .as_arr()
                .ok_or("'notes' is no array")?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_owned))
                .collect(),
            verify_s: need("verify_s")?
                .as_f64()
                .ok_or("'verify_s' is no number")?,
            spans: Vec::new(),
            pf_trace: None,
        })
    }

    /// The trace file's entry for this workload.
    pub fn trace_json(&self) -> Json {
        let selfs = spans::by_name(&self.spans).into_iter().map(|(name, s)| {
            (
                name,
                obj([
                    ("count", Json::Num(s.count as f64)),
                    ("total_ns", Json::Num(s.total_ns as f64)),
                    ("self_ns", Json::Num(s.self_ns as f64)),
                ]),
            )
        });
        obj([
            ("by_name", Json::obj(selfs)),
            ("spans", spans::to_json(&self.spans)),
            ("pf_trace", self.pf_trace.clone().unwrap_or(Json::Null)),
        ])
    }
}

/// Facts about the machine and the build, recorded in every results file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Host {
    pub rustc: String,
    pub nproc: usize,
    pub git_commit: String,
    /// The noisy-neighbour canary: a copy much larger than the last-level
    /// cache. Not a model of the machine.
    pub copy_gb_s: f64,
    pub copy_bytes: u64,
    pub l3_bytes: u64,
}

/// One `run`: every workload it ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    pub run_id: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub seconds: f64,
    pub step_scale: f64,
    pub host: Host,
    pub workloads: Vec<Outcome>,
}

const SCHEMA: &str = "pf-benchmark/1";

impl Results {
    pub fn to_json(&self) -> Json {
        let h = &self.host;
        obj([
            ("schema", Json::str(SCHEMA)),
            ("run_id", Json::str(&self.run_id)),
            // As a string: a u64 seed need not fit a JSON number.
            ("seed", Json::str(self.seed.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("smoke", Json::Bool(self.smoke)),
            ("seconds", Json::Num(self.seconds)),
            ("step_scale", Json::Num(self.step_scale)),
            (
                "host",
                obj([
                    ("rustc", Json::str(&h.rustc)),
                    ("nproc", Json::Num(h.nproc as f64)),
                    ("git_commit", Json::str(&h.git_commit)),
                    ("copy_gb_s", Json::Num(h.copy_gb_s)),
                    ("copy_bytes", Json::Num(h.copy_bytes as f64)),
                    ("l3_bytes", Json::Num(h.l3_bytes as f64)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(Outcome::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Results, String> {
        let need = |key: &str| j.get(key).ok_or_else(|| format!("results lack '{key}'"));
        if need("schema")?.as_str() != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} results file"));
        }
        let h = need("host")?;
        let hs = |k: &str| h.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let hn = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(Results {
            run_id: need("run_id")?
                .as_str()
                .ok_or("'run_id' is no string")?
                .to_owned(),
            seed: need("seed")?
                .as_str()
                .and_then(|s| s.parse().ok())
                .ok_or("'seed' is no integer string")?,
            traced: need("traced")?.as_bool().ok_or("'traced' is no bool")?,
            smoke: need("smoke")?.as_bool().ok_or("'smoke' is no bool")?,
            seconds: need("seconds")?.as_f64().ok_or("'seconds' is no number")?,
            step_scale: need("step_scale")?
                .as_f64()
                .ok_or("'step_scale' is no number")?,
            host: Host {
                rustc: hs("rustc"),
                nproc: hn("nproc") as usize,
                git_commit: hs("git_commit"),
                copy_gb_s: hn("copy_gb_s"),
                copy_bytes: hn("copy_bytes") as u64,
                l3_bytes: hn("l3_bytes") as u64,
            },
            workloads: need("workloads")?
                .as_arr()
                .ok_or("'workloads' is no array")?
                .iter()
                .map(Outcome::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn parse(text: &str) -> Result<Results, String> {
        Results::from_json(&pf_trace::parse_json(text).map_err(|e| e.to_string())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_file_round_trips() {
        let mut o = Outcome {
            workload: "p1_block_native".into(),
            attempted: 112,
            failed: 0,
            verify_s: 1.25,
            ..Outcome::default()
        };
        o.metrics.push(Metric::of_samples(
            "mlups",
            1.8125,
            "MLUP/s",
            &[0.061, 0.0605, 0.0615, 0.062],
        ));
        o.metrics
            .push(Metric::exact("ir.tape_instrs", 4213.0, "count"));
        o.gates
            .push(Gate::from("engine_vs_serial", Ok("bitwise".into())));
        o.samples.insert("step_s".into(), vec![0.061, 0.0605]);
        o.notes.push("a \"quoted\" note".into());
        o.settle();
        let r = Results {
            run_id: "1-seed18446744073709551615-untraced".into(),
            seed: u64::MAX,
            traced: false,
            smoke: true,
            seconds: 8.0,
            step_scale: 1.0,
            host: Host {
                rustc: "rustc 1.0".into(),
                nproc: 2,
                git_commit: "unknown".into(),
                copy_gb_s: 5.5,
                copy_bytes: 1 << 28,
                l3_bytes: 54 << 20,
            },
            workloads: vec![o],
        };
        assert_eq!(Results::parse(&r.to_json().to_pretty()), Ok(r));
    }

    #[test]
    fn a_failed_gate_fails_every_operation() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.gates.push(Gate::from("final_state", Err("NaN".into())));
        o.settle();
        assert_eq!(o.failed, 10);
        assert!(!o.correct());
        assert_eq!(o.metric("fail_share").unwrap().value, 1.0);
    }
}
