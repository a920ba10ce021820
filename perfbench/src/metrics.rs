//! The metric catalogue: every name a run can print, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test pins the two together); `README.md` beside this crate
//! says which end-to-end metric each per-layer metric should move.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, overheads).
    Lower,
    /// Larger is better (throughputs, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit printed beside every value.
    pub unit: &'static str,
    /// Improvement direction.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Each has one fixed meaning per workload (see `README.md`):
/// `work_per_s` is cells, programs, cells or jobs per second, and an
/// "op" is a sweep, an exhaustive check, a store round or a serve job.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("work_per_s", "1/s", Higher),
    def("op_ms_p50", "ms", Lower),
    def("op_ms_tail", "ms", Lower),
    def("first_result_ms_p50", "ms", Lower),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    def("kernel.system_new_us", "us", Lower),
    def("sim.plain_run_us", "us", Lower),
    def("sim.steps_per_run", "count", Lower),
    def("sim.ns_per_step", "ns", Lower),
    def("monitor.run_us", "us", Lower),
    def("monitor.self_us", "us", Lower),
    def("monitor.share", "ratio", Lower),
    def("replay.certify_us", "us", Lower),
    def("lockstep.divergence_us", "us", Lower),
    def("lockstep.witnesses", "count", Higher),
    def("engine.cell_ms_p50", "ms", Lower),
    def("engine.cell_ms_p90", "ms", Lower),
    def("engine.residual_frac", "ratio", Lower),
    def("sched.tasks", "count", Lower),
    def("sched.stolen", "count", Lower),
    def("sched.queue_wait_ms", "ms", Lower),
    def("exh.template_us", "us", Lower),
    def("exh.run_digest_us", "us", Lower),
    def("exh.dispatch_frac", "ratio", Lower),
    def("cache.load_ms", "ms", Lower),
    def("cache.lookup_us", "us", Lower),
    def("cache.save_ms", "ms", Lower),
    def("cache.hit_ratio", "ratio", Higher),
    def("cache.bytes", "B", Lower),
    def("persist.write_atomic_ms", "ms", Lower),
    def("journal.append_us", "us", Lower),
    def("journal.parse_ms", "ms", Lower),
    def("journal.torn_dropped", "count", Lower),
    def("wire.parse_cells_ms", "ms", Lower),
    def("wire.merge_cells_ms", "ms", Lower),
    def("render.report_ms", "ms", Lower),
    def("proc.spawn_ms", "ms", Lower),
    def("store.warm_run_ms_p50", "ms", Lower),
    def("store.partial_run_ms_p50", "ms", Lower),
    def("store.resume_ms_p50", "ms", Lower),
    def("serve.accept_ms", "ms", Lower),
    def("serve.first_rec_ms_p99", "ms", Lower),
    def("serve.fresh_conn_done_ms_p50", "ms", Lower),
    def("serve.reused_conn_done_ms_p50", "ms", Lower),
    def("serve.warm_done_ms_p50", "ms", Lower),
    def("serve.cold_done_ms_p50", "ms", Lower),
    def("serve.job_work_ms_p50", "ms", Lower),
    def("serve.hit_ratio", "ratio", Higher),
    def("attribution.residual_frac", "ratio", Lower),
    def("trace.overhead_frac", "ratio", Lower),
];

/// The catalogue a run reports from.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Whether `name` is a well-formed metric name: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "metric {:?} listed twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} for {}",
                m.unit,
                m.name
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("semi;colon"));
    }

    /// The `"name"` values of the objects in one top-level array of
    /// `BENCHMARK.json`, in order, with each object's unit and
    /// direction (`None` for workloads, which have neither).
    fn benchmark_json_entries(text: &str, key: &str) -> Vec<(String, Option<(String, String)>)> {
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?}"));
        let open = start + text[start..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        let field = |obj: &str, f: &str| -> Option<String> {
            let at = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[at + f.len() + 2..];
            let q = rest.find('"')?;
            let end = rest[q + 1..].find('"')?;
            Some(rest[q + 1..q + 1 + end].to_string())
        };
        text[open + 1..close]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| {
                let name = field(obj, "name").expect("name");
                let rest = field(obj, "unit").map(|u| (u, field(obj, "better").expect("better")));
                (name, rest)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = benchmark_json_entries(&text, key);
            let want: Vec<(String, Option<(String, String)>)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        Some((d.unit.to_string(), d.better.as_str().to_string())),
                    )
                })
                .collect();
            assert_eq!(
                listed, want,
                "BENCHMARK.json {key} drifted from the catalogue"
            );
        }
        let workloads: Vec<String> = benchmark_json_entries(&text, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, ["sweep-cold", "exhaustive", "store", "serve"]);
        for (n, _) in benchmark_json_entries(&text, "workloads") {
            assert!(valid_name(&n));
        }
    }
}
