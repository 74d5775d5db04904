//! # ars-bench — the paper-reproduction harness
//!
//! One scenario function per experiment; the `src/bin/*` binaries print the
//! exact rows/series the paper's tables and figures report. Per-layer
//! microbenchmarks live in the performance ledger (`benchmark/src/micro.rs`).
//!
//! | Paper artefact | Scenario | Binary |
//! |---|---|---|
//! | Figure 5 (load-average overhead) | [`overhead::run`] | `fig5_overhead_load` |
//! | Figure 6 (communication overhead) | [`overhead::run`] | `fig6_overhead_comm` |
//! | §5.2 timeline | [`efficiency::run`] | `sec52_timeline` |
//! | Figure 7 (CPU during migration) | [`efficiency::run`] | `fig7_efficiency_cpu` |
//! | Figure 8 (network during migration) | [`efficiency::run`] | `fig8_efficiency_comm` |
//! | Table 1 (state/action matrix) | — | `table1_states` |
//! | Table 2 (policies) | [`policies::run`] | `table2_policies` |
//! | Ablations A1–A4 | [`ablations`] | `ablate_*` |

#![warn(missing_docs)]

pub mod ablations;
pub mod efficiency;
pub mod faults;
pub mod malleable;
pub mod overhead;
pub mod policies;
pub mod scale;
pub mod wire;

use ars_simcore::TimeSeries;

/// Print aligned columns of one or more series sharing a time base.
pub fn print_series(header: &str, series: &[&TimeSeries]) {
    println!("{header}");
    print!("{:>8}", "t(s)");
    for s in series {
        print!(" {:>14}", s.name());
    }
    println!();
    let n = series.iter().map(|s| s.len()).min().unwrap_or(0);
    for i in 0..n {
        let (t, _) = series[0].samples()[i];
        print!("{:>8.0}", t.as_secs_f64());
        for s in series {
            print!(" {:>14.3}", s.samples()[i].1);
        }
        println!();
    }
}

/// Mean of a series between two times, `NaN` when empty.
pub fn mean_between(s: &TimeSeries, from_s: f64, to_s: f64) -> f64 {
    s.mean_between(
        ars_simcore::SimTime::from_secs_f64(from_s),
        ars_simcore::SimTime::from_secs_f64(to_s),
    )
    .unwrap_or(f64::NAN)
}
