//! The sweep job layer: every experiment sweep in the workspace runs
//! through this crate.
//!
//! A sweep is declared as a [`ConfigMatrix`] (axis product + pins +
//! filters), lowered to a canonical [`JobSet`] — order-stable,
//! deduplicated by the ledger `config_hash`, content-named by
//! [`JobSet::digest`] — and executed by [`run_jobset`] either in-process
//! on the [`par_map`] pool or across persistent `sweep_worker` processes
//! with work stealing (`HWGC_WORKERS`). Execution rides the
//! content-addressed [`ResultCache`] (sweeps default to `rw`, see
//! [`sweep_cache_mode`]), journals every completion for resumption
//! ([`Journal`]), reports progress on stderr
//! ([`hwgc_obs::SweepProgress`]) and lands exports in a typed
//! [`ArtifactStore`].
//!
//! Module map:
//! * [`matrix`] — `ConfigMatrix` → `JobSet` lowering and canonical form
//! * [`job`] — `SimJob`, the simulate entry point, ledger key builders,
//!   and the job/config JSON codec
//! * [`exec`] — the in-process and multi-process execution engines
//! * [`protocol`] — the coordinator ↔ `sweep_worker` wire format
//! * [`journal`] — the append-only resumption journal (journal ∪ cache)
//! * [`cache`] — the content-addressed result cache
//! * [`par`] — the scoped-thread in-process pool (`HWGC_JOBS`) and the
//!   worker-fleet sizing knob (`HWGC_WORKERS`)
//! * [`artifacts`] — the typed artifact store (`HWGC_ARTIFACTS`)

pub mod artifacts;
pub mod cache;
pub mod exec;
pub mod job;
pub mod journal;
pub mod matrix;
pub mod par;
pub mod protocol;

pub use artifacts::ArtifactStore;
pub use cache::{
    cache_path_from_env, outcome_from_json, outcome_from_text, outcome_to_json, stats_to_json,
    sweep_cache_mode, verify_pct_from, CacheCounters, CacheError, CacheLookup, CacheMode,
    ResultCache,
};
pub use exec::{run_jobset, worker_bin_path, ExecError, ExecOptions, ExecReport};
pub use job::{
    backend_label, config_from_json, config_to_json, engine_label, job_from_json, job_to_json,
    ledger_config_pairs, ledger_env_pairs, simulate, workload_key, SimJob,
};
pub use journal::{journal_path_from_env, Journal, JournalError, JOURNAL_SCHEMA};
pub use matrix::{ConfigMatrix, JobSet};
pub use par::{jobs, jobs_from, par_map, workers, workers_from};
pub use protocol::{read_frame, write_frame, FromWorker, ToWorker};
