//! Host process table — the simulated `ps`/`prstat` view.
//!
//! The rescheduler selects the process to migrate from "the start time of the
//! process" (the `pid` file time-stamp in the paper) and the application
//! schema; rules condition on "the number of processes per processor". Both
//! read this table.

use ars_simcore::SimTime;
use std::sync::Arc;

/// Scheduling state of a process as seen by `ps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// On the run queue (consuming CPU).
    Runnable,
    /// Blocked on I/O, a message, or a timer.
    Sleeping,
}

/// One row of the process table.
#[derive(Debug, Clone)]
pub struct ProcEntry {
    /// Simulator-wide process id.
    pub pid: u64,
    /// Executable name (interned: cloning a row never copies the bytes).
    pub name: Arc<str>,
    /// Time the process started on *this* host (the pid-file timestamp).
    pub start_time: SimTime,
    /// Current scheduling state.
    pub state: ProcState,
    /// True for HPCM migration-enabled processes.
    pub migratable: bool,
}

/// The process table of one host: a handful of rows, kept sorted by pid in
/// one flat vector (heartbeat process lists depend on that order).
#[derive(Debug, Clone, Default)]
pub struct ProcTable {
    entries: Vec<ProcEntry>,
}

impl ProcTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, pid: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&pid, |e| e.pid)
    }

    /// Add a process. Replaces any stale entry with the same pid.
    pub fn add(&mut self, entry: ProcEntry) {
        match self.find(entry.pid) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Remove a process; returns the removed entry if present.
    pub fn remove(&mut self, pid: u64) -> Option<ProcEntry> {
        let i = self.find(pid).ok()?;
        Some(self.entries.remove(i))
    }

    /// Look up a process.
    pub fn get(&self, pid: u64) -> Option<&ProcEntry> {
        self.find(pid).ok().map(|i| &self.entries[i])
    }

    /// Update the scheduling state of a process (no-op for unknown pids).
    pub fn set_state(&mut self, pid: u64, state: ProcState) {
        if let Ok(i) = self.find(pid) {
            self.entries[i].state = state;
        }
    }

    /// Total number of processes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no processes exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of runnable processes.
    pub fn runnable(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state == ProcState::Runnable)
            .count()
    }

    /// Iterate over all entries in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &ProcEntry> {
        self.entries.iter()
    }

    /// Migration-enabled processes, in pid order.
    pub fn migratable(&self) -> Vec<&ProcEntry> {
        self.entries.iter().filter(|e| e.migratable).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pid: u64, migratable: bool, start_s: u64) -> ProcEntry {
        ProcEntry {
            pid,
            name: format!("proc{pid}").into(),
            start_time: SimTime::from_secs(start_s),
            state: ProcState::Runnable,
            migratable,
        }
    }

    #[test]
    fn add_get_remove() {
        let mut t = ProcTable::new();
        t.add(entry(1, false, 0));
        t.add(entry(2, true, 5));
        assert_eq!(t.len(), 2);
        assert!(t.get(1).is_some());
        assert_eq!(t.remove(1).unwrap().pid, 1);
        assert!(t.get(1).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn runnable_count_tracks_state() {
        let mut t = ProcTable::new();
        t.add(entry(1, false, 0));
        t.add(entry(2, false, 0));
        assert_eq!(t.runnable(), 2);
        t.set_state(1, ProcState::Sleeping);
        assert_eq!(t.runnable(), 1);
        t.set_state(1, ProcState::Runnable);
        assert_eq!(t.runnable(), 2);
    }

    #[test]
    fn migratable_filter() {
        let mut t = ProcTable::new();
        t.add(entry(1, false, 0));
        t.add(entry(2, true, 3));
        t.add(entry(3, true, 7));
        let m = t.migratable();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].pid, 2);
        assert_eq!(m[1].pid, 3);
    }

    #[test]
    fn set_state_unknown_pid_is_noop() {
        let mut t = ProcTable::new();
        t.set_state(9, ProcState::Sleeping);
        assert!(t.is_empty());
    }

    #[test]
    fn order_matches_a_btreemap_reference() {
        let mut sleeper = entry(9, false, 99);
        sleeper.state = ProcState::Sleeping;
        // Out-of-pid-order adds, removes (one of an unknown pid), a re-add
        // of a removed pid, and a re-add of a live pid that must replace it.
        let script = [
            Some(entry(9, true, 9)),
            Some(entry(3, false, 3)),
            Some(entry(14, true, 14)),
            Some(entry(1, true, 1)),
            Some(entry(7, false, 7)),
            None,
            Some(sleeper),
            Some(entry(5, true, 5)),
            None,
            Some(entry(3, true, 30)),
            Some(entry(11, true, 11)),
        ];
        let removals = [vec![3, 14, 42], vec![1]];
        let mut t = ProcTable::new();
        let mut reference = std::collections::BTreeMap::new();
        let mut removals = removals.iter();
        for step in script {
            match step {
                Some(e) => {
                    reference.insert(e.pid, e.clone());
                    t.add(e);
                }
                None => {
                    for &pid in removals.next().unwrap() {
                        assert_eq!(t.remove(pid).is_some(), reference.remove(&pid).is_some());
                    }
                }
            }
        }
        let pids = |rows: Vec<&ProcEntry>| rows.iter().map(|e| e.pid).collect::<Vec<_>>();
        assert_eq!(pids(t.iter().collect()), pids(reference.values().collect()));
        assert_eq!(
            pids(t.migratable()),
            pids(reference.values().filter(|e| e.migratable).collect())
        );
        let runnable = reference
            .values()
            .filter(|e| e.state == ProcState::Runnable)
            .count();
        assert_eq!(t.runnable(), runnable);
        assert_eq!(t.len(), reference.len());
        assert_eq!(t.get(9).unwrap().start_time, SimTime::from_secs(99));
        assert_eq!(t.get(3).unwrap().start_time, SimTime::from_secs(30));
    }

    #[test]
    fn re_add_replaces() {
        let mut t = ProcTable::new();
        t.add(entry(1, false, 0));
        t.add(entry(1, true, 10));
        assert_eq!(t.len(), 1);
        assert!(t.get(1).unwrap().migratable);
    }
}
