//! The 16-host heartbeat + migration scenario at three seeds. Debug builds
//! check after every kernel event that the dirty-set settlement left no
//! completion schedule stale (`Kernel::debug_schedule_current`), so these
//! runs are also that check's widest workout outside the chaos suite.

use ars_bench::scale::heartbeat_migration;

#[test]
fn sixteen_host_scenario_actually_migrates() {
    // Guard against the scenario degenerating into a no-op benchmark.
    for seed in [7, 11, 23] {
        let run = heartbeat_migration(16, seed, false);
        assert!(run.migrations >= 1, "expected a migration (seed {seed})");
    }
}
