//! The benchmark's metric names, units and better-directions — the one
//! list `BENCHMARK.json` mirrors.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MiB", Lower),
    m("ok_frac", "frac", Higher),
    m("sim_mips", "MIPS", Higher),
    m("ops_per_s", "1/s", Higher),
    m("op_p50_ms", "ms", Lower),
    m("op_p90_ms", "ms", Lower),
];

/// Per-layer metrics: printed by every traced run of every workload.
pub const PER_LAYER: &[Metric] = &[
    m("fast.ns_per_inst", "ns", Lower),
    m("fast.engine_frac", "frac", Higher),
    m("fuse.coverage_pct", "%", Higher),
    m("cycle.ns_per_inst", "ns", Lower),
    m("cycle.ns_per_sim_cycle", "ns", Lower),
    m("cycle.thread_speedup", "x", Higher),
    m("cycle.domain_imbalance", "x", Lower),
    m("sim.cycles", "count", Lower),
    m("sim.instructions", "count", Lower),
    m("sim.ipc", "1/cycle", Higher),
    m("sim.fast_timing_err_pct", "%", Lower),
    m("batch.utilization", "frac", Higher),
    m("process.cpu_utilization", "frac", Higher),
    m("process.sys_frac", "frac", Lower),
    m("detect.us_p50", "us", Lower),
    m("detect.us_p99", "us", Lower),
    m("phy.point_self_frac", "frac", Lower),
    m("pool.acquire_us", "us", Lower),
    m("pool.recycle_ratio", "frac", Higher),
    m("setup.prepare_ms", "ms", Lower),
    m("setup.first_job_extra_ms", "ms", Lower),
    m("daemon.queue_wait_ms_p50", "ms", Lower),
    m("daemon.queue_wait_ms_p99", "ms", Lower),
    m("daemon.service_ms_hit_p50", "ms", Lower),
    m("daemon.service_ms_miss_p50", "ms", Lower),
    m("cache.hit_ratio", "frac", Higher),
    m("cache.evictions", "count", Lower),
    m("loadgen.lag_ms_p99", "ms", Lower),
    m("trace.overhead_pct", "%", Lower),
];

/// Whether `name` fits the metric-name rule: starts with a letter or a
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let starts_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok && name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Whether `unit` fits the unit rule: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        assert!(valid_name("fast.ns_per_inst"));
        assert!(valid_name("0-x_y.z"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s"));
    }

    #[test]
    fn registry_is_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert_eq!(all.iter().filter(|o| o.name == m.name).count(), 1, "{} listed twice", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let better = match m.better {
                Lower => "lower",
                Higher => "higher",
            };
            let entry = format!("\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"", m.name, m.unit);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists other metrics");
        let start = compact.find("\"workloads\":").expect("a workloads list");
        let end = compact.find("\"end_to_end\":").expect("an end_to_end list");
        let listed: Vec<&str> =
            compact[start..end].split("\"name\":\"").skip(1).filter_map(|r| r.split('"').next()).collect();
        assert!(listed.len() >= 2, "BENCHMARK.json gates {listed:?}");
        for w in listed {
            assert!(crate::workloads::NAMES.contains(&w), "BENCHMARK.json names unknown workload {w}");
        }
    }
}
