//! Wall-clock scaling of the DES kernel on the heartbeat + migration
//! scenario.
//!
//! Cells:
//!
//! * **flat** at N ∈ {64, 256, 1024, 4096, 16384, 65536} — one registry,
//!   the dirty-set / arena kernel carrying the scenario to cluster scale;
//! * **hierarchical** (root + 8 leaf registries) at N = 1024 and 4096;
//! * **sharded** (8 independent flat runs of N / 8 hosts, one thread
//!   each) at N = 4096, 16384 and 65536.
//!
//! Every cell records events/sec and the peak RSS it added (`VmHWM`, reset
//! via `/proc/self/clear_refs` before each cell; 0 where the kernel
//! interface is unavailable). Results land in `BENCH_scale.json` in the
//! working directory.
//!
//! `--smoke` runs the N = 4096 hierarchical + sharded cells only (the CI
//! gate), without touching BENCH_scale.json.

use ars_bench::scale::{
    heartbeat_migration, hierarchical_migration, sharded_migration, ScaleRun, RUN_S,
};
use std::time::Instant;

const SEED: u64 = 11;
/// Flat-cell sizes.
const SIZES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];
/// Sharded-cell sizes.
const SIZES_SHARDED: [usize; 3] = [4096, 16384, 65536];
/// Leaf-registry count for the hierarchical cells.
const DOMAINS: usize = 8;
/// Shard count for the sharded cells (hosts split evenly).
const SHARDS: usize = 8;

/// Reset the process peak-RSS watermark so `peak_rss_kb` measures just
/// the next cell. Linux-only; silently a no-op elsewhere.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak RSS (`VmHWM`) in KiB since the last reset, or 0 when the proc
/// interface is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

struct Cell {
    kind: &'static str,
    n_hosts: usize,
    wall_s: f64,
    events: u64,
    events_per_sec: f64,
    peak_rss_kb: u64,
    migrations: usize,
    registry_nic_util: f64,
}

fn measure(kind: &'static str, n_hosts: usize, run: impl FnOnce() -> ScaleRun) -> Cell {
    reset_peak_rss();
    let start = Instant::now();
    let run = run();
    let wall_s = start.elapsed().as_secs_f64();
    let cell = Cell {
        kind,
        n_hosts,
        wall_s,
        events: run.events_handled,
        events_per_sec: run.events_handled as f64 / wall_s,
        peak_rss_kb: peak_rss_kb(),
        migrations: run.migrations,
        registry_nic_util: run.registry_nic_util,
    };
    println!(
        "{:>12} {:>8} {:>12.3}s {:>14.0} ev/s {:>12} KiB {:>4} migration(s) {:>8.4} nic",
        cell.kind,
        cell.n_hosts,
        cell.wall_s,
        cell.events_per_sec,
        cell.peak_rss_kb,
        cell.migrations,
        cell.registry_nic_util
    );
    cell
}

fn smoke() {
    // CI gate: the two scaling paths at N = 4096, wall budget enforced by
    // the caller (scripts/ci.sh wraps this in `timeout`).
    let hier = measure("hier", 4096, || hierarchical_migration(4096, DOMAINS, SEED));
    assert!(hier.migrations >= 1, "hierarchical smoke never migrated");
    let shard = measure("sharded", 4096, || {
        sharded_migration(SHARDS, 4096 / SHARDS, SEED, false)
    });
    assert_eq!(
        shard.migrations, SHARDS,
        "every shard must migrate its overloaded app"
    );
    println!("smoke ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    println!(
        "{:>12} {:>8} {:>13} {:>19} {:>16} {:>15} {:>12}",
        "cell", "hosts", "wall", "throughput", "peak rss", "migrations", "nic util"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for &n in &SIZES {
        let o = measure("flat", n, || heartbeat_migration(n, SEED, false));
        assert!(o.migrations >= 1, "no migration at N = {n}");
        cells.push(o);
    }
    for n in [1024, 4096] {
        let h = measure("hier", n, || hierarchical_migration(n, DOMAINS, SEED));
        assert!(h.migrations >= 1, "hierarchical cell never migrated");
        cells.push(h);
    }
    for &n in &SIZES_SHARDED {
        let s = measure("sharded", n, || {
            sharded_migration(SHARDS, n / SHARDS, SEED, false)
        });
        assert_eq!(s.migrations, SHARDS, "a shard failed to migrate at N = {n}");
        cells.push(s);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"bench_scale\",\n");
    json.push_str(&format!(
        "  \"scenario\": \"heartbeat + migration, {RUN_S} s simulated, seed {SEED}\",\n"
    ));
    json.push_str(&format!(
        "  \"sharded\": {{\"shards\": {SHARDS}, \"threads\": {SHARDS}, \
         \"note\": \"independent flat runs, one scoped thread each, on {} core(s)\"}},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(
        "  \"peak_rss_note\": \"VmHWM is reset per cell but cannot drop below the resident \
         heap the allocator kept from earlier cells, so the ascending flat series is the \
         meaningful RSS data; hier/sharded cells run after the largest flat cell and \
         inherit its floor\",\n",
    );
    json.push_str(
        "  \"registry_nic_util_note\": \"fraction of the registry host's NIC receive \
         capacity used over the whole horizon (hottest shard registry for sharded cells); \
         the control plane's saturation headroom at each N\",\n",
    );
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kind\": \"{}\", \"n_hosts\": {}, \"wall_s\": {:.4}, \"events\": {}, \
             \"events_per_sec\": {:.0}, \"peak_rss_kb\": {}, \"migrations\": {}, \
             \"registry_nic_util\": {:.6}}}{}\n",
            c.kind,
            c.n_hosts,
            c.wall_s,
            c.events,
            c.events_per_sec,
            c.peak_rss_kb,
            c.migrations,
            c.registry_nic_util,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");
}
