//! # ars-hpcm — heterogeneous process-migration middleware
//!
//! A faithful stand-in for the HPCM middleware the paper builds on: a
//! pre-compiler would insert poll-points into a legacy C/Fortran program;
//! here an application implements [`MigratableApp`] and the op boundaries
//! of the simulator *are* the poll-points.
//!
//! * [`codec`] — the binary checkpoint stream ("data collection and
//!   restoration for heterogeneous process migration");
//! * [`state`] — the `MigratableApp` trait, configuration (DPM init cost,
//!   pre-initialization, restore rates) and the shared migration log;
//! * [`shell`] — [`HpcmShell`], the wrapper process implementing the
//!   reconfiguration protocol (migrate / expand / shrink) over MPI-2
//!   dynamic process management: one transaction engine, split by the role
//!   a shell plays (planning a request, coordinating the transaction,
//!   frozen member, restoring child);
//! * [`reconfig`] — the [`Reconfiguration`] request vocabulary: migration
//!   is one variant of the same prepare → transfer → commit transaction
//!   that grows and shrinks malleable worlds.

#![warn(missing_docs)]

pub mod codec;
pub mod reconfig;
pub mod shell;
pub mod state;

pub use codec::{
    checksum64, frame_state, seal_state, unframe_state, CodecError, StateReader, StateWriter,
};
pub use reconfig::Reconfiguration;
pub use shell::HpcmShell;
pub use state::{
    dest_file_path, AppStatus, CompletionRecord, HpcmConfig, HpcmHooks, HpcmLog, MigratableApp,
    MigrationOutcome, MigrationRecord, ResizeKind, ResizeRecord, SavedState, MIGRATE_SIGNAL,
    TAG_HPCM_COMMIT, TAG_HPCM_COMMIT_ACK, TAG_HPCM_EAGER, TAG_HPCM_FREEZE, TAG_HPCM_FROZEN,
    TAG_HPCM_LAZY, TAG_HPCM_READY, TAG_HPCM_RESUME, TAG_HPCM_RETIRE,
};
