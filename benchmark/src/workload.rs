//! One workload run: drive the scenario, check its outputs, turn what was
//! measured into named metrics.

use crate::des::{self, Rep, RepSpec};
use crate::live::{self, LiveRun};
use crate::metrics::Values;
use crate::span::Spans;
use crate::{micro, procfs, stats};
use ars_obs::Obs;
use ars_sim::FaultStats;
use std::time::Instant;

/// One output check of the run; a failed check invalidates the run.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a single `--workload` run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub values: Values,
    pub spans: Spans,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Parameters of a single run (the driver's four flags plus `--quick`).
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// `VmHWM` when `main` started: the allocator/runtime floor that
    /// `sim.bytes_per_host` subtracts (what an empty child would report).
    pub rss_floor_kb: u64,
}

pub fn run(workload: &str, spec: RunSpec) -> Option<Outcome> {
    match workload {
        "flat_hb" => Some(run_des(des::Kind::FlatHb, spec)),
        "tree_hb" => Some(run_des(des::Kind::TreeHb, spec)),
        "reconfig_storm" => Some(run_des(des::Kind::ReconfigStorm, spec)),
        "live_sat_bin" => Some(run_live(live::Kind::SatBin, spec)),
        "live_sat_xml" => Some(run_live(live::Kind::SatXml, spec)),
        "live_paced" => Some(run_live(live::Kind::Paced, spec)),
        _ => None,
    }
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

// --- DES -----------------------------------------------------------------------------

/// Committed reconfigurations one `reconfig_storm` rep must reach.
const STORM_MIN_RECONFIGS: usize = 150;
const STORM_MIN_RECONFIGS_QUICK: usize = 30;
/// The background-only twin may cost at most this share of a storm rep.
const STORM_MAX_BACKGROUND_SHARE: f64 = 0.30;

fn obs_mean(obs: &Obs, histogram: &str) -> f64 {
    obs.histogram(histogram)
        .and_then(|h| h.mean())
        .unwrap_or(0.0)
}

fn run_des(kind: des::Kind, spec: RunSpec) -> Outcome {
    let sizes = kind.sizes(spec.quick);
    let mut spans = Spans::new(spec.traced);
    let mut checks = Vec::new();
    let mut values = Values::default();
    let min_reps = if spec.quick { 1 } else { 3 };
    let rep_spec = |obs: Obs| RepSpec {
        kind,
        sizes,
        seed: spec.seed,
        quick: spec.quick,
        background_only: false,
        obs,
    };

    // Same seed every rep: `events` and every simulated outcome must repeat
    // exactly. On a traced run rep 0 stays untraced; the difference to the
    // observed reps is the tracing overhead.
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut observed: Vec<(usize, Obs)> = Vec::new();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < spec.seconds {
        spans.set_rep(reps.len() as u32);
        let obs = if spec.traced && !reps.is_empty() {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        if obs.is_enabled() {
            observed.push((reps.len(), obs.clone()));
        }
        reps.push(des::run_rep(&rep_spec(obs), &mut spans));
    }
    let first = &reps[0];

    // Output checks.
    let identical = reps.iter().all(|r| r.fingerprint() == first.fingerprint());
    check(
        &mut checks,
        "same-seed reps identical",
        identical,
        format!("{} reps, events {}", reps.len(), first.events),
    );
    check(
        &mut checks,
        "apps finished with exact digests",
        first.apps_ok == first.apps_started,
        format!(
            "{}/{}, last at {:.0} of {} sim-s",
            first.apps_ok, first.apps_started, first.last_finish_s, sizes.horizon_s
        ),
    );
    match kind {
        des::Kind::FlatHb | des::Kind::TreeHb => {
            check(
                &mut checks,
                "at least one committed migration",
                first.migrations_committed >= 1,
                format!("{}", first.migrations_committed),
            );
            check(
                &mut checks,
                "no faults without a plan",
                first.faults == FaultStats::default(),
                format!(
                    "{} message faults, {} crashes",
                    first.faults.msgs_dropped
                        + first.faults.msgs_duplicated
                        + first.faults.msgs_delayed,
                    first.faults.crashes
                ),
            );
        }
        des::Kind::ReconfigStorm => {
            let min = if spec.quick {
                STORM_MIN_RECONFIGS_QUICK
            } else {
                STORM_MIN_RECONFIGS
            };
            check(
                &mut checks,
                "enough committed reconfigurations",
                first.reconfigurations() >= min,
                format!("{} (need {min})", first.reconfigurations()),
            );
        }
    }

    // End-to-end metrics.
    let hosts = sizes.hosts as f64;
    let nominal_hb = sizes.nominal_heartbeats(sizes.horizon_s);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall_s = stats::median(&walls);
    let setups: Vec<f64> = reps.iter().map(|r| r.setup.total()).collect();
    let mut slices: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.slice_walls.iter().copied())
        .collect();
    stats::sort(&mut slices);
    values.set("wall_s", wall_s);
    values.set("setup_s", stats::median(&setups));
    values.set("hb_per_sec", nominal_hb / wall_s);
    values.set("hb_lat_p50_s", wall_s / nominal_hb);

    if spec.traced {
        values.set(
            "failed_frac",
            (first.apps_started - first.apps_ok) as f64 / first.apps_started as f64,
        );
        values.set("sim_migration_s", first.sim_migration_s);
        values.set("sim_turnaround_s", first.sim_turnaround_s);
        values.set(
            "sim_ctrl_bytes_per_host_s",
            first.registry_rx_bytes / (hosts * sizes.horizon_s as f64),
        );
        values.set("sim.events", first.events as f64);
        values.set("sim.ns_per_event", wall_s * 1e9 / first.events as f64);
        values.set(
            "sim.events_per_host_s",
            first.events as f64 / (hosts * sizes.horizon_s as f64),
        );
        values.set(
            "sim.slice_wall_p50_s",
            stats::percentile_sorted(&slices, 50.0),
        );
        values.set("sim.slice_wall_max_s", *slices.last().expect("slices"));
        values.set(
            "sim.build_s",
            stats::median(&reps.iter().map(|r| r.setup.sim_new_s).collect::<Vec<_>>()),
        );
        values.set(
            "sim.deploy_s",
            stats::median(&reps.iter().map(|r| r.setup.deploy_s).collect::<Vec<_>>()),
        );
        values.set(
            "sim.bytes_per_host",
            first.rss_after_kb.saturating_sub(spec.rss_floor_kb) as f64 * 1024.0 / hosts,
        );
        // 53 bits of the outcome hash: exactly representable as a number.
        values.set("sim.trace_fnv64", (first.outcome_fnv64 >> 11) as f64);
        values.set("regcore.decisions", first.decisions as f64);
        values.set("regcore.commands_sent", first.commands_sent as f64);
        values.set("regcore.retransmits", first.retransmits as f64);
        values.set("regcore.commands_aborted", first.commands_aborted as f64);
        values.set("hpcm.committed", first.migrations_committed as f64);
        values.set(
            "hpcm.aborted",
            (first.migrations_aborted + first.resizes_aborted) as f64,
        );
        values.set("hpcm.resizes_committed", first.resizes_committed as f64);
        let attempts = first.reconfigurations() + first.migrations_aborted + first.resizes_aborted;
        values.set(
            "hpcm.useful_ratio",
            first.reconfigurations() as f64 / attempts.max(1) as f64,
        );
        let f = &first.faults;
        values.set("faults.msgs_dropped", f.msgs_dropped as f64);
        values.set("faults.msgs_delayed", f.msgs_delayed as f64);

        // Counters and histograms the layers export through `Obs`.
        let traced_wall = match observed.last() {
            Some((_, obs)) => {
                values.set(
                    "regcore.first_fit_scan_len",
                    obs_mean(obs, "first_fit_scan_len"),
                );
                values.set("hpcm.prepare_sim_s", obs_mean(obs, "migration_prepare_s"));
                values.set("hpcm.transfer_sim_s", obs_mean(obs, "migration_transfer_s"));
                values.set("hpcm.commit_sim_s", obs_mean(obs, "migration_commit_s"));
                values.set("hpcm.total_sim_s", obs_mean(obs, "migration_total_s"));
                values.set(
                    "mpisim.redistribution_bytes_mean",
                    obs_mean(obs, "redistribution_bytes"),
                );
                values.set("faults.injected", obs.counter("faults_injected") as f64);
                values.set("obs.recorded", obs.recorded() as f64);
                values.set("obs.dropped", obs.dropped() as f64);
                let on: Vec<f64> = observed.iter().map(|&(i, _)| reps[i].wall_s).collect();
                let on = stats::median(&on);
                values.set("obs.overhead_frac", on / reps[0].wall_s - 1.0);
                on
            }
            None => wall_s,
        };

        // Extra scenarios a traced run pays for.
        if kind == des::Kind::FlatHb && !spec.quick {
            let small = RepSpec {
                sizes: des::Sizes {
                    hosts: 256,
                    ..sizes
                },
                ..rep_spec(Obs::disabled())
            };
            let r = des::run_rep(&small, &mut spans);
            values.set(
                "sim.sag_ratio",
                (wall_s / first.events as f64) / (r.wall_s / r.events as f64),
            );
        }
        if kind == des::Kind::ReconfigStorm {
            let twin = RepSpec {
                background_only: true,
                ..rep_spec(Obs::disabled())
            };
            let share = des::run_rep(&twin, &mut spans).wall_s / wall_s;
            values.set("sim.background_share", share);
            // The quick apps are too short to outweigh the background.
            check(
                &mut checks,
                "background twin within its share",
                spec.quick || share <= STORM_MAX_BACKGROUND_SHARE,
                format!("{share:.3} (limit {STORM_MAX_BACKGROUND_SHARE})"),
            );
        }

        spans.time("microloops", |_| micro::run_all(sizes.hosts, &mut values));
        ledger(first, nominal_hb, traced_wall, &mut values);
    }
    // Read last: the microloops' arrays must not count as the workload's.
    values.set(
        "peak_rss_kb",
        reps.iter().map(|r| r.rss_after_kb).max().expect("reps") as f64,
    );

    let attempted = (first.apps_started * reps.len()) as u64;
    let failed = reps
        .iter()
        .map(|r| (r.apps_started - r.apps_ok) as u64)
        .sum();
    Outcome {
        attempted,
        failed,
        checks,
        values,
        spans,
    }
}

/// The `share.*` ledger: calls a rep makes × the microloop's unit cost, as
/// a share of the traced rep's wall time. Call counts are nominal (every
/// workstation samples, classifies and heartbeats once per period); what
/// the rows do not cover — kernel dispatch, host/NIC settlement, the apps'
/// own work — is `share.unattributed`.
fn ledger(rep: &Rep, nominal_hb: f64, wall_s: f64, values: &mut Values) {
    let v = |name: &str| values.get(name).unwrap_or(0.0);
    let wall_ns = wall_s * 1e9;
    let eager_kib = rep.eager_bytes as f64 / 1024.0;
    let moved_frac = v("mpisim.redist_moved_frac");
    let redistributed_elems = if moved_frac > 0.0 {
        rep.moved_bytes as f64 / 8.0 / moved_frac
    } else {
        0.0
    };
    let rows = [
        (
            "share.xmlwire",
            nominal_hb * (v("xmlwire.xml_encode_hb_ns") + v("xmlwire.xml_decode_hb_ns")),
        ),
        (
            "share.regcore",
            nominal_hb * v("regcore.handle_hb_ns")
                + rep.decisions as f64 * v("regcore.decision_ns"),
        ),
        (
            "share.rules",
            nominal_hb * (v("rules.should_migrate_ns") + v("rules.dest_acceptable_ns")),
        ),
        ("share.sysinfo", nominal_hb * v("sysinfo.sample_ns")),
        (
            "share.simcore_queue",
            rep.events as f64 * v("simcore.queue_push_pop_ns"),
        ),
        (
            "share.hpcm_codec",
            eager_kib
                * (v("hpcm.save_ns_per_kb")
                    + v("hpcm.frame_unframe_ns_per_kb")
                    + v("hpcm.restore_ns_per_kb")),
        ),
        (
            "share.mpisim_redist",
            redistributed_elems * v("mpisim.redistribute_ns_per_elem"),
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in rows {
        values.set(name, ns / wall_ns);
        attributed += ns / wall_ns;
    }
    values.set("share.unattributed", 1.0 - attributed);
}

// --- live ----------------------------------------------------------------------------

fn run_live(kind: live::Kind, spec: RunSpec) -> Outcome {
    let sizes = live::Sizes::new(spec.quick);
    let mut spans = Spans::new(spec.traced);
    let mut values = Values::default();
    let obs = if spec.traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let run: LiveRun = live::run(
        kind,
        sizes,
        spec.seed,
        spec.seconds,
        spec.traced,
        &obs,
        &mut spans,
    );
    // Read before the microloops allocate their arrays.
    values.set("peak_rss_kb", procfs::peak_rss_kb() as f64);

    let mut checks = Vec::new();
    check(
        &mut checks,
        "live output checks",
        run.violations.is_empty(),
        if run.violations.is_empty() {
            format!(
                "{} heartbeats, {} latency samples, tail p{}",
                run.attempted, run.lat_samples, run.lat_tail_pct
            )
        } else {
            run.violations.join("; ")
        },
    );

    if !run.setups.is_empty() && run.hb_per_sec > 0.0 {
        let setups: Vec<f64> = run.setups.iter().map(|s| s.total()).collect();
        values.set("setup_s", stats::median(&setups));
        values.set("wall_s", run.wall_s);
        values.set("hb_per_sec", run.hb_per_sec);
        values.set("hb_lat_p50_s", run.lat_p50_s);
    }
    if spec.traced && !run.setups.is_empty() {
        let connects: Vec<f64> = run.setups.iter().map(|s| s.connect_s).collect();
        let registers: Vec<f64> = run.setups.iter().map(|s| s.register_s).collect();
        if kind == live::Kind::Paced {
            values.set("hb_lat_p99_s", run.lat_tail_s);
        }
        values.set(
            "failed_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
        );
        values.set("live.connect_s", stats::median(&connects));
        values.set(
            "live.reg_per_sec",
            sizes.conns as f64 / stats::median(&registers),
        );
        values.set("live.proc_cpu_s", run.proc_cpu_s);
        values.set("live.wire_decode_s_mean", obs_mean(&obs, "wire_decode_s"));
        values.set("live.conns_dropped", run.conns_dropped as f64);
        values.set("live.nacks", run.nacks as f64);
        values.set("obs.recorded", obs.recorded() as f64);
        values.set("obs.dropped", obs.dropped() as f64);
        if kind == live::Kind::Paced {
            values.set("live.gen_late_p99_s", run.gen_late_p99_s);
            let mut max_ok: f64 = if run.violations.is_empty() && run.lat_tail_s <= 0.020 {
                sizes.paced_rate
            } else {
                0.0
            };
            for (&name, &(rate, p99, ok)) in [
                "live.lat_p99_s.r10k",
                "live.lat_p99_s.r40k",
                "live.lat_p99_s.r80k",
            ]
            .iter()
            .zip(&run.sweep)
            {
                values.set(name, p99);
                if ok {
                    max_ok = max_ok.max(rate);
                }
            }
            values.set("live.max_rate_ok", max_ok);
        }
        spans.time("microloops", |_| micro::run_all(sizes.conns, &mut values));
    }

    Outcome {
        attempted: run.attempted.max(1),
        failed: run.failed,
        checks,
        values,
        spans,
    }
}
