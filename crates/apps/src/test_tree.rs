//! The paper's evaluation workload.
//!
//! "A computational intensive migration-enabled application named
//! `test_tree`, which creates binary trees with specified number of levels,
//! assigns a random number to each node of the trees, sorts the trees and
//! computes the sum of all the tree nodes." (§5)
//!
//! The implementation keeps the real data (node values are generated,
//! sorted and summed for a verifiable checksum) while the CPU cost of each
//! phase is modeled per node, chunked so that every chunk boundary is a
//! poll-point. The serialized node array is the eager part of the
//! migration state; the rest of the resident set is the lazily streamed
//! remainder.

use ars_hpcm::{AppStatus, CodecError, MigratableApp, SavedState, StateReader, StateWriter};
use ars_sim::{Ctx, Wake};
use ars_xmlwire::{AppCharacteristic, ApplicationSchema, ResourceRequirements};

/// Workload shape and cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct TestTreeConfig {
    /// How many trees to process.
    pub trees: u32,
    /// Levels per tree; each tree has `2^levels - 1` nodes.
    pub levels: u32,
    /// CPU-seconds per node to build (allocate + fill).
    pub node_cost_build: f64,
    /// CPU-seconds per node to sort (per comparison-ish unit).
    pub node_cost_sort: f64,
    /// CPU-seconds per node to sum.
    pub node_cost_sum: f64,
    /// Nodes processed between poll-points.
    pub chunk_nodes: u64,
    /// Modeled resident set size (drives migration volume), kilobytes.
    pub rss_kb: u64,
    /// Seed for the node values.
    pub seed: u64,
}

impl TestTreeConfig {
    /// A small, fast instance for tests.
    pub fn small() -> Self {
        TestTreeConfig {
            trees: 2,
            levels: 10,
            node_cost_build: 4e-4,
            node_cost_sort: 6e-4,
            node_cost_sum: 2e-4,
            chunk_nodes: 512,
            rss_kb: 8_192,
            seed: 7,
        }
    }

    /// Nodes per tree.
    pub fn nodes(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// Total CPU-seconds on the reference machine.
    pub fn total_work(&self) -> f64 {
        self.trees as f64
            * self.nodes() as f64
            * (self.node_cost_build + self.node_cost_sort + self.node_cost_sum)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Build,
    Sort,
    Sum,
    Done,
}

impl Phase {
    fn code(self) -> u8 {
        match self {
            Phase::Build => 0,
            Phase::Sort => 1,
            Phase::Sum => 2,
            Phase::Done => 3,
        }
    }

    fn from_code(c: u8) -> Phase {
        match c {
            0 => Phase::Build,
            1 => Phase::Sort,
            2 => Phase::Sum,
            _ => Phase::Done,
        }
    }
}

/// The `test_tree` application (see module docs).
pub struct TestTree {
    cfg: TestTreeConfig,
    phase: Phase,
    tree: u32,
    /// Nodes already processed in the current phase of the current tree.
    node: u64,
    /// Current tree's node values (real data).
    values: Vec<u64>,
    /// Checksum accumulated across finished trees.
    pub total_sum: u64,
    /// CPU-seconds of modeled work completed (survives migration).
    work_done: f64,
}

impl TestTree {
    /// Create a fresh instance.
    pub fn new(cfg: TestTreeConfig) -> Self {
        TestTree {
            cfg,
            phase: Phase::Build,
            tree: 0,
            node: 0,
            values: Vec::new(),
            total_sum: 0,
            work_done: 0.0,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &TestTreeConfig {
        &self.cfg
    }

    /// Deterministic node value (stable across chunking and migration).
    fn value(&self, tree: u32, node: u64) -> u64 {
        let mut x = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((tree as u64) << 32)
            .wrapping_add(node);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn phase_cost(&self) -> f64 {
        match self.phase {
            Phase::Build => self.cfg.node_cost_build,
            Phase::Sort => self.cfg.node_cost_sort,
            Phase::Sum => self.cfg.node_cost_sum,
            Phase::Done => 0.0,
        }
    }

    /// Issue the compute op for the next chunk.
    fn issue_chunk(&mut self, ctx: &mut Ctx<'_>) {
        let remaining = self.cfg.nodes() - self.node;
        let chunk = remaining.min(self.cfg.chunk_nodes);
        ctx.compute(chunk as f64 * self.phase_cost());
    }

    /// Account a completed chunk and run the real data operations.
    fn complete_chunk(&mut self) {
        let nodes_total = self.cfg.nodes();
        let remaining = nodes_total - self.node;
        let chunk = remaining.min(self.cfg.chunk_nodes);
        self.work_done += chunk as f64 * self.phase_cost();

        match self.phase {
            Phase::Build => {
                for i in self.node..self.node + chunk {
                    let v = self.value(self.tree, i);
                    self.values.push(v);
                }
            }
            Phase::Sort | Phase::Sum => {}
            Phase::Done => {}
        }
        self.node += chunk;

        if self.node >= nodes_total {
            // Phase finished: perform the real operation and advance.
            match self.phase {
                Phase::Build => {
                    self.phase = Phase::Sort;
                }
                Phase::Sort => {
                    self.values.sort_unstable();
                    self.phase = Phase::Sum;
                }
                Phase::Sum => {
                    let sum: u64 = self.values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
                    self.total_sum = self.total_sum.wrapping_add(sum);
                    self.values.clear();
                    self.tree += 1;
                    self.phase = if self.tree >= self.cfg.trees {
                        Phase::Done
                    } else {
                        Phase::Build
                    };
                }
                Phase::Done => {}
            }
            self.node = 0;
        }
    }

    /// The checksum this configuration must produce, computed directly
    /// (used to verify migrated runs).
    pub fn expected_sum(cfg: &TestTreeConfig) -> u64 {
        let probe = TestTree::new(cfg.clone());
        let mut total = 0u64;
        for tree in 0..cfg.trees {
            for node in 0..cfg.nodes() {
                total = total.wrapping_add(probe.value(tree, node));
            }
        }
        total
    }
}

impl MigratableApp for TestTree {
    fn app_name(&self) -> String {
        "test_tree".to_string()
    }

    fn schema(&self) -> ApplicationSchema {
        ApplicationSchema {
            app: "test_tree".to_string(),
            characteristic: AppCharacteristic::ComputeIntensive,
            est_comm_bytes: 0,
            requirements: ResourceRequirements {
                mem_kb: self.cfg.rss_kb,
                disk_kb: 0,
                min_cpu_speed: 0.1,
            },
            est_exec_time_s: self.cfg.total_work(),
            history_runs: 0,
        }
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, wake: Wake) -> AppStatus {
        match wake {
            Wake::Started => {
                if self.phase == Phase::Done {
                    return AppStatus::Finished;
                }
                self.issue_chunk(ctx);
                AppStatus::Running
            }
            Wake::OpDone => {
                self.complete_chunk();
                if self.phase == Phase::Done {
                    return AppStatus::Finished;
                }
                self.issue_chunk(ctx);
                AppStatus::Running
            }
            _ => AppStatus::Running,
        }
    }

    fn save(&self) -> SavedState {
        let mut w = StateWriter::new();
        w.u32(self.cfg.trees)
            .u32(self.cfg.levels)
            .f64(self.cfg.node_cost_build)
            .f64(self.cfg.node_cost_sort)
            .f64(self.cfg.node_cost_sum)
            .u64(self.cfg.chunk_nodes)
            .u64(self.cfg.rss_kb)
            .u64(self.cfg.seed)
            .u8(self.phase.code())
            .u32(self.tree)
            .u64(self.node)
            .u64s(&self.values)
            .u64(self.total_sum)
            .f64(self.work_done);
        let eager = w.into_bytes();
        let lazy = (self.cfg.rss_kb * 1024).saturating_sub(eager.len() as u64);
        SavedState {
            eager,
            lazy_bytes: lazy,
        }
    }

    fn restore(eager: &[u8], _mpi: Option<&ars_mpisim::Mpi>) -> Result<Self, CodecError> {
        let mut r = StateReader::new(eager);
        let cfg = TestTreeConfig {
            trees: r.u32()?,
            levels: r.u32()?,
            node_cost_build: r.f64()?,
            node_cost_sort: r.f64()?,
            node_cost_sum: r.f64()?,
            chunk_nodes: r.u64()?,
            rss_kb: r.u64()?,
            seed: r.u64()?,
        };
        Ok(TestTree {
            cfg,
            phase: Phase::from_code(r.u8()?),
            tree: r.u32()?,
            node: r.u64()?,
            values: r.u64s()?,
            total_sum: r.u64()?,
            work_done: r.f64()?,
        })
    }

    fn progress(&self) -> f64 {
        self.work_done
    }

    fn result_digest(&self) -> u64 {
        self.total_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_and_work() {
        let cfg = TestTreeConfig::small();
        assert_eq!(cfg.nodes(), 1023);
        let per_node = cfg.node_cost_build + cfg.node_cost_sort + cfg.node_cost_sum;
        assert!((cfg.total_work() - 2.0 * 1023.0 * per_node).abs() < 1e-9);
    }

    #[test]
    fn values_are_deterministic() {
        let a = TestTree::new(TestTreeConfig::small());
        let b = TestTree::new(TestTreeConfig::small());
        for i in 0..100 {
            assert_eq!(a.value(0, i), b.value(0, i));
        }
        assert_ne!(a.value(0, 1), a.value(1, 1));
    }

    #[test]
    fn save_restore_roundtrip_mid_phase() {
        let mut app = TestTree::new(TestTreeConfig::small());
        // Simulate a few completed chunks.
        app.complete_chunk();
        app.complete_chunk();
        let saved = app.save();
        let back = TestTree::restore(&saved.eager, None).expect("valid checkpoint");
        assert_eq!(back.cfg, app.cfg);
        assert_eq!(back.phase, app.phase);
        assert_eq!(back.tree, app.tree);
        assert_eq!(back.node, app.node);
        assert_eq!(back.values, app.values);
        assert_eq!(back.total_sum, app.total_sum);
    }

    #[test]
    fn lazy_bytes_cover_the_rss() {
        let app = TestTree::new(TestTreeConfig::small());
        let saved = app.save();
        assert_eq!(saved.eager.len() as u64 + saved.lazy_bytes, 8_192 * 1024);
    }

    #[test]
    fn expected_sum_matches_chunked_execution() {
        let cfg = TestTreeConfig {
            trees: 2,
            levels: 6,
            chunk_nodes: 7, // deliberately not dividing 63 evenly
            ..TestTreeConfig::small()
        };
        let mut app = TestTree::new(cfg.clone());
        while app.phase != Phase::Done {
            app.complete_chunk();
        }
        assert_eq!(app.total_sum, TestTree::expected_sum(&cfg));
        assert!(app.work_done > 0.0);
    }

    #[test]
    fn schema_reflects_config() {
        let app = TestTree::new(TestTreeConfig::small());
        let s = app.schema();
        assert_eq!(s.app, "test_tree");
        assert_eq!(s.requirements.mem_kb, 8_192);
        assert!((s.est_exec_time_s - app.cfg.total_work()).abs() < 1e-9);
    }
}
