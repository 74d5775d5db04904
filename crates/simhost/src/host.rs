//! The simulated workstation.
//!
//! A [`Host`] composes the CPU (processor-sharing [`SharedResource`]), load
//! averages, memory, disks, a process table and a tiny key-value "filesystem"
//! (used by the commander to hand the destination address to the migrating
//! process, as the paper does with a temp file).
//!
//! The host is a passive model: the cluster simulator (`ars-sim`) owns the
//! event queue, drives `advance`, schedules load-average ticks, and reacts to
//! CPU completions.

use crate::disk::{DiskSet, Mount};
use crate::loadavg::LoadAvg;
use crate::mem::{MemUse, Memory, OutOfMemory};
use crate::procs::{ProcEntry, ProcState, ProcTable};
use ars_simcore::{JobId, SharedResource, SimTime};

/// Index of a host within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Static description of a workstation.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Hostname (unique within a cluster).
    pub name: String,
    /// CPU speed relative to the reference machine (Sun Blade 100, 500 MHz
    /// UltraSparc-IIe = 1.0). Work units are CPU-seconds on the reference.
    pub cpu_speed: f64,
    /// Number of processors.
    pub n_cpus: u32,
    /// Physical memory in kilobytes.
    pub mem_kb: u64,
    /// Swap space in kilobytes.
    pub swap_kb: u64,
    /// Mounted filesystems.
    pub mounts: Vec<Mount>,
    /// Operating system label (static registration info only).
    pub os: String,
}

impl Default for HostConfig {
    /// The paper's testbed node: Sun Blade 100, 1x UltraSparc-IIe 500 MHz,
    /// 128 MB memory, SunOS 5.8.
    fn default() -> Self {
        HostConfig {
            name: "sunblade".to_string(),
            cpu_speed: 1.0,
            n_cpus: 1,
            mem_kb: 131_072,
            swap_kb: 262_144,
            mounts: vec![Mount::new("/", 8_388_608, 2_097_152)],
            os: "SunOS 5.8".to_string(),
        }
    }
}

impl HostConfig {
    /// Convenience constructor with a name, keeping testbed defaults.
    pub fn named(name: impl Into<String>) -> Self {
        HostConfig {
            name: name.into(),
            ..Default::default()
        }
    }
}

/// A simulated workstation (see module docs).
pub struct Host {
    config: HostConfig,
    cpu: SharedResource,
    load: LoadAvg,
    mem: Memory,
    disks: DiskSet,
    procs: ProcTable,
    /// `(path, content)` pairs, one per migration handing off through this
    /// host: a few at most, so a flat vector searched linearly.
    files: Vec<(String, String)>,
}

impl Host {
    /// Boot a host from its static configuration.
    pub fn new(config: HostConfig) -> Self {
        let capacity = config.cpu_speed * config.n_cpus as f64;
        Host {
            cpu: SharedResource::new(capacity),
            load: LoadAvg::new(),
            mem: Memory::new(config.mem_kb, config.swap_kb),
            disks: DiskSet::new(config.mounts.clone()),
            procs: ProcTable::new(),
            files: Vec::new(),
            config,
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Hostname.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    // --- Power state (fault injection) -------------------------------------

    /// The host crashed: wipe the local scratch files (a reboot loses
    /// `/tmp`). Which hosts are down is the kernel's fault engine's to
    /// know — it kills resident processes and refuses spawns meanwhile.
    pub fn crash(&mut self) {
        self.files.clear();
    }

    // --- CPU ---------------------------------------------------------------

    /// Enqueue `work` CPU-seconds (reference-machine units) of computation.
    pub fn start_compute(&mut self, now: SimTime, work: f64) -> JobId {
        self.cpu.add_job(now, Some(work), 1.0)
    }

    /// Enqueue an unbounded CPU burner (e.g. a spin loop daemon).
    pub fn start_spinner(&mut self, now: SimTime) -> JobId {
        self.cpu.add_job(now, None, 1.0)
    }

    /// Remove a compute job, returning CPU-seconds it received.
    pub fn end_compute(&mut self, now: SimTime, job: JobId) -> Option<f64> {
        self.cpu.remove_job(now, job)
    }

    /// Settle CPU service up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        self.cpu.advance(now);
    }

    /// Next CPU job completion, if any.
    pub fn next_cpu_completion(&self, now: SimTime) -> Option<(SimTime, JobId)> {
        self.cpu.next_completion(now)
    }

    /// CPU membership version (for lazy event invalidation).
    pub fn cpu_version(&self) -> u64 {
        self.cpu.version()
    }

    /// Lowest-id completed CPU job (allocation-free reaping).
    pub fn first_finished_cpu_job(&self) -> Option<JobId> {
        self.cpu.first_finished_job()
    }

    /// Length of the run queue (jobs actively consuming CPU).
    pub fn run_queue(&self) -> usize {
        self.cpu.active_len()
    }

    /// Cumulative CPU busy time in seconds (the `vmstat` counter).
    pub fn cpu_busy_secs(&self) -> f64 {
        self.cpu.busy_secs()
    }

    // --- Load averages -----------------------------------------------------

    /// Kernel 5-second load sample; the cluster simulator calls this on a
    /// periodic tick. The run queue counts jobs actively consuming CPU
    /// *plus* table entries still marked runnable — a process whose burst
    /// ends exactly on the tick is still on the queue, which matters when
    /// compute chunks align with the sampling period.
    pub fn sample_load(&mut self, now: SimTime) {
        let n = self.run_queue().max(self.procs.runnable());
        self.load.sample(now, n);
    }

    /// Load averages (1, 5, 15 minutes).
    pub fn load_avg(&self) -> (f64, f64, f64) {
        (self.load.one(), self.load.five(), self.load.fifteen())
    }

    // --- Memory / disks ----------------------------------------------------

    /// Reserve memory for a pid.
    pub fn mem_reserve(&mut self, pid: u64, use_: MemUse) -> Result<(), OutOfMemory> {
        self.mem.reserve(pid, use_)
    }

    /// Memory state.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Disk state.
    pub fn disks(&self) -> &DiskSet {
        &self.disks
    }

    // --- Process table -----------------------------------------------------

    /// Register a process with the host `ps` table. It starts with no
    /// memory reserved; callers set that with [`Host::mem_reserve`].
    pub fn proc_add(&mut self, entry: ProcEntry) {
        self.procs.add(entry);
    }

    /// Remove a process from the table (releasing its memory).
    pub fn proc_remove(&mut self, pid: u64) -> Option<ProcEntry> {
        self.mem.release(pid);
        self.procs.remove(pid)
    }

    /// Update a process's scheduling state.
    pub fn proc_set_state(&mut self, pid: u64, state: ProcState) {
        self.procs.set_state(pid, state);
    }

    /// The process table.
    pub fn procs(&self) -> &ProcTable {
        &self.procs
    }

    // --- Files (commander <-> migrating process handoff) --------------------

    fn file_index(&self, path: &str) -> Option<usize> {
        self.files.iter().position(|(p, _)| p == path)
    }

    /// Write a host-local file (overwrites).
    pub fn write_file(&mut self, path: impl Into<String>, content: impl Into<String>) {
        let path = path.into();
        let content = content.into();
        match self.file_index(&path) {
            Some(i) => self.files[i].1 = content,
            None => self.files.push((path, content)),
        }
    }

    /// Read a host-local file.
    pub fn read_file(&self, path: &str) -> Option<&str> {
        self.file_index(path).map(|i| self.files[i].1.as_str())
    }

    /// Remove a host-local file; returns its content if it existed.
    pub fn remove_file(&mut self, path: &str) -> Option<String> {
        let i = self.file_index(path)?;
        Some(self.files.swap_remove(i).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn default_config_is_the_testbed_node() {
        let c = HostConfig::default();
        assert_eq!(c.n_cpus, 1);
        assert_eq!(c.mem_kb, 131_072);
        assert_eq!(c.os, "SunOS 5.8");
    }

    #[test]
    fn compute_shares_cpu() {
        let mut h = Host::new(HostConfig::default());
        let _a = h.start_compute(t(0.0), 10.0);
        let _b = h.start_compute(t(0.0), 10.0);
        assert_eq!(h.run_queue(), 2);
        let (done, _) = h.next_cpu_completion(t(0.0)).unwrap();
        assert_eq!(done, t(20.0)); // shared: both finish at 20 s
    }

    #[test]
    fn fast_host_finishes_sooner() {
        let cfg = HostConfig {
            cpu_speed: 2.0,
            ..HostConfig::default()
        };
        let mut h = Host::new(cfg);
        h.start_compute(t(0.0), 10.0);
        let (done, _) = h.next_cpu_completion(t(0.0)).unwrap();
        assert_eq!(done, t(5.0));
    }

    #[test]
    fn load_average_follows_run_queue() {
        let mut h = Host::new(HostConfig::default());
        h.start_spinner(t(0.0));
        h.start_spinner(t(0.0));
        let mut s = 0u64;
        while s < 600 {
            s += 5;
            h.advance(t(s as f64));
            h.sample_load(t(s as f64));
        }
        let (la1, la5, _) = h.load_avg();
        assert!((la1 - 2.0).abs() < 0.01, "la1={la1}");
        assert!((la5 - 2.0).abs() < 0.3, "la5={la5}");
    }

    #[test]
    fn busy_secs_accumulate_only_under_load() {
        let mut h = Host::new(HostConfig::default());
        let j = h.start_compute(t(0.0), 3.0);
        h.advance(t(10.0));
        assert!((h.cpu_busy_secs() - 3.0).abs() < 1e-9);
        h.end_compute(t(10.0), j);
        h.advance(t(20.0));
        assert!((h.cpu_busy_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn proc_table_and_memory_lifecycle() {
        let mut h = Host::new(HostConfig::default());
        h.proc_add(ProcEntry {
            pid: 7,
            name: "test_tree".into(),
            start_time: t(1.0),
            state: ProcState::Runnable,
            migratable: true,
        });
        h.mem_reserve(
            7,
            MemUse {
                rss_kb: 1000,
                vsz_kb: 1000,
            },
        )
        .unwrap();
        assert_eq!(h.mem().phys_avail_kb(), 131_072 - 1000);
        let gone = h.proc_remove(7).unwrap();
        assert_eq!(gone.pid, 7);
        assert_eq!(h.mem().phys_avail_kb(), 131_072);
    }

    #[test]
    fn files_roundtrip() {
        let mut h = Host::new(HostConfig::default());
        h.write_file("/tmp/hpcm_dest", "host4:7801");
        assert_eq!(h.read_file("/tmp/hpcm_dest"), Some("host4:7801"));
        assert_eq!(h.remove_file("/tmp/hpcm_dest").unwrap(), "host4:7801");
        assert_eq!(h.read_file("/tmp/hpcm_dest"), None);
    }
}
