//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is generated from these tables (`--print-benchmark-json`) and a unit
//! test keeps the committed file equal to them.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "flat_hb",
        why: "DES, 2048 hosts under one flat registry: boot burst then steady heartbeats; queue, host/NIC settlement, sensors, rules, XML and regcore table do the work",
    },
    Workload {
        name: "tree_hb",
        why: "Same cluster under deploy_tree [4,4]: same regcore used through DomainReport aggregation; a hierarchy change shows here and leaves flat_hb unmoved",
    },
    Workload {
        name: "reconfig_storm",
        why: "DES, 64 hosts, 24 apps + 4 malleable worlds chased by job waves under message faults: decisions, hpcm transactions, codec, redistribution; few heartbeats",
    },
    Workload {
        name: "live_sat_bin",
        why: "Real LiveRegistry on loopback, 1000 connections, closed loop, binary codec: capacity of reactor scan, FrameReader, one-lock batch into regcore",
    },
    Workload {
        name: "live_sat_xml",
        why: "Identical with the paper's XML codec: a binary-codec gain must not move it, a reactor or regcore gain must move both",
    },
    Workload {
        name: "live_paced",
        why: "Same registry, open loop at 20000 hb/s timed from due time: latency below saturation is set by the reactor's idle scan and nap policy, not codec cost",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Defined on all six workloads and never zero (see README "Metric
/// glossary" for the per-family definitions).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "hb_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "hb_lat_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.22,
    },
    EndToEnd {
        name: "peak_rss_kb",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Traced-run metrics, grouped by layer (crate) name. A metric that does
/// not apply to a workload is reported as 0 on it (the result line must
/// carry every name); the human-readable output prints `n/a` instead.
pub const PER_LAYER: [PerLayer; 88] = [
    // demoted end-to-end metrics: defined on one workload family only, or
    // always zero, so they cannot be gated on all six workloads
    lower("hb_lat_p99_s", "s"),
    lower("failed_frac", "ratio"),
    lower("sim_migration_s", "sim-s"),
    lower("sim_turnaround_s", "sim-s"),
    lower("sim_ctrl_bytes_per_host_s", "B/host/s"),
    // simcore
    lower("simcore.queue_push_pop_ns", "ns"),
    lower("simcore.queue_cancel_ns", "ns"),
    lower("simcore.resource_add_remove_ns", "ns"),
    // simhost
    lower("simhost.advance_ns", "ns"),
    lower("simhost.sample_load_ns", "ns"),
    // simnet
    lower("simnet.msg_flow_ns", "ns"),
    lower("simnet.bulk_contended_ns", "ns"),
    // sim
    lower("sim.events", "count"),
    lower("sim.ns_per_event", "ns"),
    lower("sim.events_per_host_s", "1/s"),
    lower("sim.slice_wall_p50_s", "s"),
    lower("sim.slice_wall_max_s", "s"),
    lower("sim.build_s", "s"),
    lower("sim.deploy_s", "s"),
    lower("sim.bytes_per_host", "B"),
    lower("sim.sag_ratio", "ratio"),
    lower("sim.background_share", "ratio"),
    higher("sim.trace_fnv64", "count"),
    // sysinfo
    lower("sysinfo.sample_ns", "ns"),
    // rules
    lower("rules.evaluate_ns", "ns"),
    lower("rules.should_migrate_ns", "ns"),
    lower("rules.dest_acceptable_ns", "ns"),
    lower("rules.resize_decide_ns", "ns"),
    // xmlwire
    lower("xmlwire.xml_encode_hb_ns", "ns"),
    lower("xmlwire.xml_decode_hb_ns", "ns"),
    lower("xmlwire.bin_encode_hb_ns", "ns"),
    lower("xmlwire.bin_decode_hb_ns", "ns"),
    lower("xmlwire.xml_hb_bytes", "B"),
    lower("xmlwire.bin_hb_bytes", "B"),
    higher("xmlwire.reader_xml_mb_s", "MB/s"),
    higher("xmlwire.reader_bin_mb_s", "MB/s"),
    // regcore
    lower("regcore.handle_hb_ns", "ns"),
    lower("regcore.handle_register_ns", "ns"),
    lower("regcore.timer_sweep_ns", "ns"),
    lower("regcore.decision_ns", "ns"),
    lower("regcore.domain_report_ns", "ns"),
    lower("regcore.effects_per_hb", "count"),
    lower("regcore.first_fit_scan_len", "count"),
    lower("regcore.decisions", "count"),
    lower("regcore.commands_sent", "count"),
    lower("regcore.retransmits", "count"),
    lower("regcore.commands_aborted", "count"),
    // live
    lower("live.connect_s", "s"),
    higher("live.reg_per_sec", "1/s"),
    lower("live.proc_cpu_s", "s"),
    lower("live.wire_decode_s_mean", "s"),
    lower("live.gen_late_p99_s", "s"),
    lower("live.lat_p99_s.r10k", "s"),
    lower("live.lat_p99_s.r40k", "s"),
    lower("live.lat_p99_s.r80k", "s"),
    higher("live.max_rate_ok", "1/s"),
    lower("live.conns_dropped", "count"),
    lower("live.nacks", "count"),
    // hpcm
    lower("hpcm.save_ns_per_kb", "ns/KiB"),
    lower("hpcm.restore_ns_per_kb", "ns/KiB"),
    higher("hpcm.checksum_mb_s", "MB/s"),
    lower("hpcm.frame_unframe_ns_per_kb", "ns/KiB"),
    lower("hpcm.prepare_sim_s", "sim-s"),
    lower("hpcm.transfer_sim_s", "sim-s"),
    lower("hpcm.commit_sim_s", "sim-s"),
    lower("hpcm.total_sim_s", "sim-s"),
    higher("hpcm.committed", "count"),
    lower("hpcm.aborted", "count"),
    higher("hpcm.resizes_committed", "count"),
    higher("hpcm.useful_ratio", "ratio"),
    // mpisim
    lower("mpisim.redistribute_ns_per_elem", "ns"),
    lower("mpisim.decompose_ns_per_elem", "ns"),
    lower("mpisim.redist_moved_frac", "ratio"),
    lower("mpisim.redistribution_bytes_mean", "B"),
    // faults
    lower("faults.injected", "count"),
    lower("faults.msgs_dropped", "count"),
    lower("faults.msgs_delayed", "count"),
    // obs
    lower("obs.overhead_frac", "ratio"),
    lower("obs.recorded", "count"),
    lower("obs.dropped", "count"),
    // ledger: call count x microloop unit cost / traced wall_s
    lower("share.xmlwire", "ratio"),
    lower("share.regcore", "ratio"),
    lower("share.rules", "ratio"),
    lower("share.sysinfo", "ratio"),
    lower("share.simcore_queue", "ratio"),
    lower("share.hpcm_codec", "ratio"),
    lower("share.mpisim_redist", "ratio"),
    lower("share.unattributed", "ratio"),
];

pub const RUN_SECONDS: u32 = 10;

/// Measured values of one run, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record a value. The name must exist in one of the tables — a typo
    /// would otherwise silently drop a metric from the result line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut row = metric(m.name, m.unit, m.better);
                        row.push(("bound", Json::Num(m.bound)));
                        Json::obj(row)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "unit of {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn values_reject_names_outside_the_tables() {
        Values::default().set("wall_seconds", 1.0);
    }
}
