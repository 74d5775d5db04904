//! Shared side-channels: the control-message payload, the
//! application-schema book and the decision log.

use ars_sim::Payload;
use ars_simcore::SimTime;
use ars_xmlwire::{ApplicationSchema, Message};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};

/// The tag every rescheduler control message travels under.
pub const CONTROL_TAG: u32 = 0xC011;

/// A control message as a simulation payload: the typed [`Message`]
/// itself, charged the exact length of its XML document. Receivers take it
/// back with `env.payload.into_value::<Message>()`; nothing is encoded or
/// parsed.
pub fn control(msg: Message) -> Payload {
    let len = msg.xml_len() as u64;
    Payload::Value(Arc::new(msg), len)
}

/// Shared map of application name → schema ("initially provided by the
/// users and … updated according to the statistics of actual executions").
/// Monitors read it to fill heartbeat process reports; the registry reads
/// resource requirements from it. `Arc`-shared and `Send`: the same book
/// feeds the single-threaded simulation and the live TCP registry's worker
/// threads. A lock poisoned by a panicking holder is recovered from — the
/// book is a lookup cache, so the worst a recovered lock exposes is a
/// schema from before the panic.
#[derive(Clone, Default)]
pub struct SchemaBook(Arc<Mutex<HashMap<String, ApplicationSchema>>>);

impl SchemaBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, ApplicationSchema>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register or replace a schema.
    pub fn put(&self, schema: ApplicationSchema) {
        self.lock().insert(schema.app.clone(), schema);
    }

    /// Look up a schema by application name.
    pub fn get(&self, app: &str) -> Option<ApplicationSchema> {
        self.lock().get(app).cloned()
    }

    /// Fold a measured run into an app's schema (post-execution feedback).
    pub fn record_run(&self, app: &str, measured_s: f64) {
        if let Some(s) = self.lock().get_mut(app) {
            s.record_run(measured_s);
        }
    }
}

/// One scheduling decision made by a registry/scheduler.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// When the decision completed.
    pub at: SimTime,
    /// Overloaded host that triggered it.
    pub source: String,
    /// Chosen destination (None: no candidate anywhere).
    pub dest: Option<String>,
    /// Selected process (None when the host had nothing migratable).
    pub pid: Option<u64>,
    /// True when the candidate came from a parent registry (hierarchy).
    pub escalated: bool,
}

/// Shared decision log read by tests and the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct ReschedLog {
    /// All decisions, in order.
    pub decisions: Vec<DecisionRecord>,
    /// Migration commands actually sent to commanders.
    pub commands_sent: usize,
    /// Command retransmits after a missed acknowledgement.
    pub command_retransmits: usize,
    /// Commands abandoned after exhausting retransmits (or rejected).
    pub commands_aborted: usize,
}

/// Cheap handle to the shared decision log.
#[derive(Clone, Default)]
pub struct ReschedHooks(pub Rc<RefCell<ReschedLog>>);

impl ReschedHooks {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of decisions taken.
    pub fn decision_count(&self) -> usize {
        self.0.borrow().decisions.len()
    }

    /// The most recent decision.
    pub fn last_decision(&self) -> Option<DecisionRecord> {
        self.0.borrow().decisions.last().cloned()
    }

    /// Migration commands sent.
    pub fn commands_sent(&self) -> usize {
        self.0.borrow().commands_sent
    }

    /// Command retransmits after a missed acknowledgement.
    pub fn command_retransmits(&self) -> usize {
        self.0.borrow().command_retransmits
    }

    /// Commands abandoned after exhausting retransmits (or rejected).
    pub fn commands_aborted(&self) -> usize {
        self.0.borrow().commands_aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_book_roundtrip() {
        let book = SchemaBook::new();
        book.put(ApplicationSchema::compute("test_tree", 600.0));
        assert_eq!(book.get("test_tree").unwrap().est_exec_time_s, 600.0);
        assert!(book.get("other").is_none());
        book.record_run("test_tree", 300.0);
        assert!(book.get("test_tree").unwrap().est_exec_time_s < 600.0);
    }

    #[test]
    fn hooks_shared_and_empty() {
        let hooks = ReschedHooks::new();
        assert_eq!(hooks.decision_count(), 0);
        assert!(hooks.last_decision().is_none());
        let clone = hooks.clone();
        clone.0.borrow_mut().decisions.push(DecisionRecord {
            at: SimTime::ZERO,
            source: "ws1".to_string(),
            dest: Some("ws4".to_string()),
            pid: Some(7),
            escalated: false,
        });
        assert_eq!(hooks.decision_count(), 1);
    }
}
