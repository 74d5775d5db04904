//! Sharded kernel: run embarrassingly-separable domains as independent
//! sub-simulations, one per shard, optionally on parallel threads.
//!
//! The DES kernel is inherently serial — one event queue, one clock. But
//! the autonomic-rescheduling workloads we model are mostly *separable*:
//! a domain's monitors, heartbeats and local decisions never touch another
//! domain except through explicit cross-domain migrations. The sharded
//! runner exploits that: each shard owns a full [`Sim`] and runs freely
//! inside an epoch; at each epoch barrier the coordinator collects
//! cross-shard events from every shard (`extract`), routes them, and
//! injects them into their destinations (`apply`) before the next epoch.
//!
//! Determinism is the contract, not an accident:
//!
//! * shards are built, stepped, extracted and applied in shard-index
//!   order in sequential mode, and replies are received in shard-index
//!   order in parallel mode — `parallel: true` and `parallel: false`
//!   produce byte-identical results;
//! * the merged trace is stable-sorted by event time only, so
//!   simultaneous events across shards order by shard index and events
//!   within a shard keep their kernel order;
//! * cross-shard events extracted at epoch `t` are applied at `t` in
//!   every mode, so a migration always lands at the same simulated time
//!   regardless of thread scheduling.
//!
//! [`Sim`] is deliberately not `Send` (programs hold `Rc` hooks), so a
//! shard cannot be built on the coordinator thread and shipped to a
//! worker. Instead a [`ShardSpec`] carries a `Send` *builder* closure;
//! the worker thread invokes it and the whole session — sim, hooks,
//! extraction state — lives and dies on that thread. Only the extracted
//! events (`E: Send`) and the final output (`Out: Send`) cross threads.

use crate::sim::Sim;
use crate::trace::TraceEvent;
use ars_simcore::{SimDuration, SimTime};
use std::sync::mpsc;

/// Cross-shard events collected at a barrier, tagged with the
/// destination shard index.
pub type Extracted<E> = Vec<(usize, E)>;

/// A shard's in-thread state: the sub-simulation plus the hooks the
/// coordinator drives it with. Built by [`ShardSpec::build`] on the
/// thread that will run it; never crosses threads.
pub struct ShardSession<E, Out> {
    /// The sub-simulation for this shard.
    pub sim: Sim,
    /// Collect cross-shard events that became visible by `now`, tagged
    /// with their destination shard index. Called at every epoch barrier;
    /// must return each event exactly once.
    pub extract: ExtractFn<E>,
    /// Inject events routed to this shard. Called at the barrier time
    /// they were extracted at, before the next epoch runs. Only invoked
    /// when there is at least one event.
    pub apply: ApplyFn<E>,
    /// Consume the finished sub-simulation into the shard's result.
    pub finish: Box<dyn FnOnce(Sim) -> Out>,
}

/// Signature of [`ShardSession::extract`].
pub type ExtractFn<E> = Box<dyn FnMut(&mut Sim, SimTime) -> Extracted<E>>;
/// Signature of [`ShardSession::apply`].
pub type ApplyFn<E> = Box<dyn FnMut(&mut Sim, SimTime, Vec<E>)>;

/// A recipe for one shard: a `Send` closure that builds the (non-`Send`)
/// [`ShardSession`] on the worker thread. The argument is the shard's
/// index in the `specs` vector passed to [`run_sharded`].
pub struct ShardSpec<E, Out> {
    /// Builder invoked once, on the shard's own thread.
    pub build: Box<dyn FnOnce(usize) -> ShardSession<E, Out> + Send>,
}

impl<Out> ShardSpec<(), Out> {
    /// A shard with no cross-shard traffic: `extract` returns nothing and
    /// `apply` is a no-op. The common case for scale benchmarks where
    /// domains are fully independent. `build` returns the sub-simulation
    /// together with its finisher, which may therefore own (non-`Send`)
    /// handles created while building.
    pub fn isolated<F: FnOnce(Sim) -> Out + 'static>(
        build: impl FnOnce(usize) -> (Sim, F) + Send + 'static,
    ) -> Self {
        ShardSpec {
            build: Box::new(move |idx| {
                let (sim, finish) = build(idx);
                ShardSession {
                    sim,
                    extract: Box::new(|_, _| Vec::new()),
                    apply: Box::new(|_, _, _| {}),
                    finish: Box::new(finish),
                }
            }),
        }
    }
}

/// Tunables for [`run_sharded`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Barrier interval: cross-shard events are exchanged every `epoch`.
    /// Must not exceed the minimum latency of any cross-shard interaction
    /// or events would arrive later than a monolithic sim would deliver
    /// them.
    pub epoch: SimDuration,
    /// Run every shard to this time, then finish.
    pub until: SimTime,
    /// Run shards on worker threads (`true`) or interleaved on the
    /// calling thread (`false`). Results are identical either way.
    pub parallel: bool,
}

/// What [`run_sharded`] returns.
pub struct ShardedRun<Out> {
    /// Per-shard outputs, in shard order.
    pub outputs: Vec<Out>,
    /// All shards' traces merged: stable-sorted by time, ties broken by
    /// shard index, kernel order preserved within a shard.
    pub trace: Vec<TraceEvent>,
    /// Total kernel events handled across all shards.
    pub events_handled: u64,
}

/// Epoch barrier times: `epoch, 2*epoch, …` clamped to and always
/// including `until`.
fn barriers(cfg: &ShardedConfig) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut t = SimTime::default() + cfg.epoch;
    while t < cfg.until {
        out.push(t);
        t += cfg.epoch;
    }
    out.push(cfg.until);
    out
}

/// Drive `specs` to `cfg.until` with epoch barriers, returning per-shard
/// outputs and the deterministically merged trace. See the module docs
/// for the determinism contract.
///
/// Panics if `specs` is empty, if `cfg.epoch` is zero, if an extracted
/// event names a shard index out of range, or if a worker thread panics.
pub fn run_sharded<E, Out>(specs: Vec<ShardSpec<E, Out>>, cfg: ShardedConfig) -> ShardedRun<Out>
where
    E: Send + 'static,
    Out: Send + 'static,
{
    assert!(!specs.is_empty(), "run_sharded: no shards");
    assert!(
        cfg.epoch > SimDuration::ZERO,
        "run_sharded: epoch must be positive (a zero epoch never reaches `until`)"
    );
    if cfg.parallel {
        run_parallel(specs, cfg)
    } else {
        run_sequential(specs, cfg)
    }
}

/// Route one barrier's extractions into per-destination-shard inboxes.
/// Shards are drained in shard order, so inbox order is deterministic.
fn route<E>(n: usize, extracted: Vec<Extracted<E>>) -> Vec<Vec<E>> {
    let mut inboxes: Vec<Vec<E>> = (0..n).map(|_| Vec::new()).collect();
    for shard_out in extracted {
        for (dest, ev) in shard_out {
            assert!(dest < n, "run_sharded: event routed to shard {dest} of {n}");
            inboxes[dest].push(ev);
        }
    }
    inboxes
}

fn finish_session<E, Out>(session: ShardSession<E, Out>) -> (Vec<TraceEvent>, u64, Out) {
    let trace = session.sim.kernel().trace.events().to_vec();
    let events = session.sim.kernel().events_handled();
    let out = (session.finish)(session.sim);
    (trace, events, out)
}

fn merge<Out>(per_shard: Vec<(Vec<TraceEvent>, u64, Out)>) -> ShardedRun<Out> {
    let mut outputs = Vec::with_capacity(per_shard.len());
    let mut trace = Vec::new();
    let mut events_handled = 0u64;
    for (t, n, out) in per_shard {
        trace.extend(t);
        events_handled += n;
        outputs.push(out);
    }
    // Stable sort on time only: ties order by shard index (push order
    // above), and each shard's own events keep their kernel order.
    trace.sort_by_key(|e| e.t);
    ShardedRun {
        outputs,
        trace,
        events_handled,
    }
}

fn run_sequential<E, Out>(specs: Vec<ShardSpec<E, Out>>, cfg: ShardedConfig) -> ShardedRun<Out> {
    let n = specs.len();
    let mut sessions: Vec<ShardSession<E, Out>> = specs
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s.build)(i))
        .collect();

    for t in barriers(&cfg) {
        let mut extracted: Vec<Extracted<E>> = Vec::with_capacity(n);
        for s in sessions.iter_mut() {
            s.sim.run_until(t);
            let evs = (s.extract)(&mut s.sim, t);
            extracted.push(evs);
        }
        let inboxes = route(n, extracted);
        for (s, inbox) in sessions.iter_mut().zip(inboxes) {
            if !inbox.is_empty() {
                (s.apply)(&mut s.sim, t, inbox);
            }
        }
    }

    merge(sessions.into_iter().map(finish_session).collect())
}

/// Coordinator → worker commands. `deliver` is applied at the shard's
/// current time (the previous barrier), then the shard runs to `run_to`
/// and replies with its extractions.
enum Cmd<E> {
    Step { deliver: Vec<E>, run_to: SimTime },
    Finish { deliver: Vec<E> },
}

fn run_parallel<E, Out>(specs: Vec<ShardSpec<E, Out>>, cfg: ShardedConfig) -> ShardedRun<Out>
where
    E: Send + 'static,
    Out: Send + 'static,
{
    let n = specs.len();
    let barriers = barriers(&cfg);

    std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(n);
        let mut step_rxs = Vec::with_capacity(n);
        let mut done_rxs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);

        for (idx, spec) in specs.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<E>>();
            let (step_tx, step_rx) = mpsc::channel::<Extracted<E>>();
            let (done_tx, done_rx) = mpsc::channel::<(Vec<TraceEvent>, u64, Out)>();
            cmd_txs.push(cmd_tx);
            step_rxs.push(step_rx);
            done_rxs.push(done_rx);
            handles.push(scope.spawn(move || {
                let mut s = (spec.build)(idx);
                loop {
                    match cmd_rx.recv().expect("coordinator hung up") {
                        Cmd::Step { deliver, run_to } => {
                            if !deliver.is_empty() {
                                let now = s.sim.now();
                                (s.apply)(&mut s.sim, now, deliver);
                            }
                            s.sim.run_until(run_to);
                            let evs = (s.extract)(&mut s.sim, run_to);
                            step_tx.send(evs).expect("coordinator hung up");
                        }
                        Cmd::Finish { deliver } => {
                            if !deliver.is_empty() {
                                let now = s.sim.now();
                                (s.apply)(&mut s.sim, now, deliver);
                            }
                            done_tx
                                .send(finish_session(s))
                                .expect("coordinator hung up");
                            return;
                        }
                    }
                }
            }));
        }

        // Per-shard inbox carried across the barrier: extracted at t,
        // delivered to the destination just before it runs past t.
        let mut inboxes: Vec<Vec<E>> = (0..n).map(|_| Vec::new()).collect();
        for &t in &barriers {
            for (tx, inbox) in cmd_txs.iter().zip(inboxes.drain(..)) {
                tx.send(Cmd::Step {
                    deliver: inbox,
                    run_to: t,
                })
                .expect("worker died");
            }
            // Receive in shard order: this is what makes the parallel
            // run's routing identical to the sequential run's.
            let extracted: Vec<Extracted<E>> = step_rxs
                .iter()
                .map(|rx| rx.recv().expect("worker died"))
                .collect();
            inboxes = route(n, extracted);
        }
        // Final inboxes (events extracted at `until`) are delivered at
        // `until` inside Finish, so both modes leave shards in the same
        // state: run→until, extract(until), apply(until), finish.
        for (tx, inbox) in cmd_txs.iter().zip(inboxes) {
            tx.send(Cmd::Finish { deliver: inbox })
                .expect("worker died");
        }
        let per_shard: Vec<(Vec<TraceEvent>, u64, Out)> = done_rxs
            .iter()
            .map(|rx| rx.recv().expect("worker died"))
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        merge(per_shard)
    })
}
