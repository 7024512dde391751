//! Collector configuration.

use hwgc_memsim::MemConfig;

/// Configuration of a simulated collection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Number of coprocessor cores (the prototype supports 1–16).
    pub n_cores: usize,
    /// Memory-system timing model.
    pub mem: MemConfig,
    /// Ablation C (paper Section VI-B, javac discussion): read the mark
    /// bit *without* acquiring the header lock first, and only attempt a
    /// locking read if the mark bit is clear. Already-forwarded children —
    /// the common case for popular objects — then never contend on the
    /// header lock.
    pub test_before_lock: bool,
    /// Extension 1 (paper conclusions): distribute work at a granularity
    /// finer than whole objects. `Some(L)` lets a scan claim take at most
    /// `L` body words of a large object, so several cores can copy one
    /// object concurrently; the synchronization block tracks the
    /// outstanding chunks and the last finisher blackens. `None` is the
    /// paper's object-granularity baseline.
    pub line_split: Option<u32>,
    /// Test harness knob: permute the core tick order every cycle with
    /// this seed. The paper's SB arbitrates with a *static* priority
    /// (`None`, the default — cores tick in index order); a permuted order
    /// models any other legal arbiter and lets tests explore different
    /// interleavings of the same collection. Functional results must be
    /// identical either way; only stall attribution may shift.
    pub tick_permutation_seed: Option<u64>,
    /// Upper bound on simulated cycles before the engine assumes a model
    /// bug and panics with diagnostics.
    pub max_cycles: u64,
    /// What-if ablation knob: give the SB's `scan`/`free` registers one
    /// write port *per core*, so a same-cycle register write no longer
    /// blocks the next acquirer (the `scan_lock`/`free_lock` stall class
    /// loses its write-port-conflict share). Lock holds themselves are
    /// unchanged — claim and evacuation atomicity still rely on them.
    /// Not a paper configuration; used to validate the what-if predictor.
    pub multiport_sb: bool,
    /// Event-horizon fast-forward (default on): when every core is
    /// stalled on in-flight memory transactions and nothing else can
    /// change, the engine jumps to the next memory completion in one step
    /// instead of ticking every dead cycle; and when the only progress is
    /// body words streaming through at burst speed, it replays that run
    /// in closed form (DESIGN.md §5 lists the three flavours). Bit-exact
    /// — identical `GcStats`, SB event stamps and trace rows — and
    /// automatically suppressed whenever a schedule policy, a mutator or
    /// tracing could observe the skipped cycles. `false` forces the
    /// naive per-cycle loop (the differential tests compare both).
    pub fast_forward: bool,
    /// Sparse active-set engine (default on, `HWGC_SPARSE=0` in the
    /// environment flips the default off): cores whose next retry provably
    /// fails park on per-resource wake conditions — SB lock releases,
    /// memory retirements, or a computed wake cycle — and the clock jumps
    /// to the earliest wake instead of ticking every core every cycle.
    /// Per-cycle work becomes O(runnable) instead of O(n_cores). Bit-exact
    /// — identical `GcStats`, SB event stamps and trace rows, including
    /// under schedule policies — and automatically suppressed when a
    /// mutator runs (its ticks observe every cycle). `false` forces the
    /// naive per-cycle loop (the differential tests compare both).
    pub sparse: bool,
    /// Engine selection override. `None` (the default) derives the
    /// engine from the legacy `sparse` flag — [`EngineKind::Sparse`]
    /// when it is set, [`EngineKind::Naive`] otherwise — after
    /// consulting the `HWGC_ENGINE` environment knob (see
    /// [`engine_from`]). [`EngineKind::Par`] runs the sparse loop
    /// extended with conservative time windows executed by a host
    /// thread pool (see `engine::par` and DESIGN §10); like the other
    /// engines it is bit-exact, and it degrades to the plain sparse
    /// loop whenever a window cannot soundly open.
    pub engine: Option<EngineKind>,
    /// Host worker threads for [`EngineKind::Par`] (`HWGC_HOST_THREADS`
    /// in the environment): `0` (the default) means auto — one worker
    /// per available host core; `1` keeps every window on the
    /// coordinating thread.
    pub host_threads: usize,
    /// Minimum total words a window must copy before the par engine
    /// dispatches the copy to the worker pool instead of doing it
    /// inline (`HWGC_PAR_COPY_THRESHOLD`); windows below it are not
    /// worth a handshake.
    pub par_copy_threshold: usize,
}

/// Which simulation loop advances the collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Tick every core every cycle (with event-horizon fast-forward
    /// unless `fast_forward` is off).
    Naive,
    /// The sparse active-set loop (PR 5): O(runnable) per cycle.
    Sparse,
    /// The sparse loop plus host-thread-parallel conservative windows:
    /// when every core is parked mid-copy, the engine advances the
    /// copy streams to the window horizon in one step and fans the
    /// heap writes out across host threads.
    Par,
}

/// Parse the `HWGC_ENGINE` environment knob: `naive`, `sparse` or `par`
/// (ASCII case-insensitive, trimmed) select an engine; unset, empty or
/// anything unrecognized yields `None`, which defers to the legacy
/// `sparse` flag (`HWGC_SPARSE`).
pub fn engine_from(var: Option<&str>) -> Option<EngineKind> {
    match var.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("naive") => Some(EngineKind::Naive),
        Some("sparse") => Some(EngineKind::Sparse),
        Some("par") => Some(EngineKind::Par),
        _ => None,
    }
}

/// Parse the `HWGC_HOST_THREADS` environment knob: a positive integer
/// pins the worker count; unset, `0`, `auto` or anything unrecognized
/// means auto-size to the host.
pub fn host_threads_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse().ok()).unwrap_or(0)
}

/// Parse the `HWGC_SPARSE` escape hatch: unset keeps the sparse engine
/// on; `0` / `false` / `off` / `no` (trimmed) disable it; anything else
/// leaves it on.
pub fn sparse_from(var: Option<&str>) -> bool {
    !matches!(
        var.map(str::trim),
        Some("0") | Some("false") | Some("off") | Some("no")
    )
}

impl Default for GcConfig {
    fn default() -> GcConfig {
        GcConfig {
            n_cores: 1,
            mem: MemConfig::default(),
            test_before_lock: false,
            line_split: None,
            tick_permutation_seed: None,
            multiport_sb: false,
            max_cycles: 2_000_000_000,
            fast_forward: true,
            sparse: sparse_from(std::env::var("HWGC_SPARSE").ok().as_deref()),
            engine: engine_from(std::env::var("HWGC_ENGINE").ok().as_deref()),
            host_threads: host_threads_from(std::env::var("HWGC_HOST_THREADS").ok().as_deref()),
            par_copy_threshold: std::env::var("HWGC_PAR_COPY_THRESHOLD")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(256),
        }
    }
}

impl GcConfig {
    /// Convenience constructor for the common case.
    pub fn with_cores(n_cores: usize) -> GcConfig {
        GcConfig {
            n_cores,
            ..GcConfig::default()
        }
    }

    /// The engine this configuration actually runs: the explicit
    /// [`GcConfig::engine`] override when present, else the legacy
    /// `sparse` flag's choice — with one measured exception. At a single
    /// simulated core the sparse loop's wake-admission bookkeeping costs
    /// more than it saves (the active set *is* the core), and only the
    /// naive loop has the stream jump: one core of `compress` at scale
    /// 60 collects in 0.59 s on the sparse loop against 0.48 s on the
    /// naive loop with the horizon jump alone (≈ 20 %) and 0.27 s with
    /// the stream jump. So an unpinned single-core configuration runs
    /// the naive loop with fast-forward instead. The engines are
    /// bit-exact, so the swap is invisible to every stat; pin
    /// `engine: Some(EngineKind::Sparse)` (or `HWGC_ENGINE=sparse`) to
    /// defeat the heuristic, e.g. in differential tests.
    pub fn effective_engine(&self) -> EngineKind {
        match self.engine {
            Some(kind) => kind,
            // Only while fast-forward is on: without it the naive loop
            // grinds every hollow cycle and loses by far more.
            None if self.sparse && self.n_cores == 1 && self.fast_forward => EngineKind::Naive,
            None if self.sparse => EngineKind::Sparse,
            None => EngineKind::Naive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_core() {
        let c = GcConfig::default();
        assert_eq!(c.n_cores, 1);
        assert!(!c.test_before_lock);
    }

    #[test]
    fn with_cores_sets_count_only() {
        let c = GcConfig::with_cores(16);
        assert_eq!(c.n_cores, 16);
        assert_eq!(c.mem, MemConfig::default());
    }

    #[test]
    fn sparse_from_documents_every_input_class() {
        // Unset: on by default.
        assert!(sparse_from(None));
        // Explicit off spellings, with surrounding whitespace tolerated.
        for off in ["0", "false", "off", "no", " 0 ", "\tfalse\n"] {
            assert!(!sparse_from(Some(off)), "{off:?} should disable");
        }
        // Anything else (including empty and affirmative values): on.
        for on in ["", "1", "true", "on", "yes", "sparse", "OFF"] {
            assert!(sparse_from(Some(on)), "{on:?} should keep the default");
        }
    }

    #[test]
    fn engine_from_documents_every_input_class() {
        // The three engines, case-insensitive, whitespace-tolerant.
        assert_eq!(engine_from(Some("naive")), Some(EngineKind::Naive));
        assert_eq!(engine_from(Some("sparse")), Some(EngineKind::Sparse));
        assert_eq!(engine_from(Some("par")), Some(EngineKind::Par));
        assert_eq!(engine_from(Some(" PAR \n")), Some(EngineKind::Par));
        // Unset, empty, or unrecognized: defer to the legacy flag.
        assert_eq!(engine_from(None), None);
        assert_eq!(engine_from(Some("")), None);
        assert_eq!(engine_from(Some("parallel")), None);
    }

    #[test]
    fn effective_engine_defers_to_the_sparse_flag() {
        let base = GcConfig {
            engine: None,
            ..GcConfig::default()
        };
        let sparse_on = GcConfig {
            sparse: true,
            ..base
        };
        let sparse_off = GcConfig {
            sparse: false,
            ..base
        };
        // Single-core default: the naive loop wins (see
        // `effective_engine`), unless fast-forward is off or the engine
        // is pinned.
        assert_eq!(sparse_on.effective_engine(), EngineKind::Naive);
        assert_eq!(
            GcConfig {
                fast_forward: false,
                ..sparse_on
            }
            .effective_engine(),
            EngineKind::Sparse
        );
        assert_eq!(
            GcConfig {
                n_cores: 2,
                ..sparse_on
            }
            .effective_engine(),
            EngineKind::Sparse
        );
        assert_eq!(
            GcConfig {
                engine: Some(EngineKind::Sparse),
                ..sparse_on
            }
            .effective_engine(),
            EngineKind::Sparse
        );
        assert_eq!(sparse_off.effective_engine(), EngineKind::Naive);
        // The explicit override wins regardless of the legacy flag.
        for kind in [EngineKind::Naive, EngineKind::Sparse, EngineKind::Par] {
            let c = GcConfig {
                engine: Some(kind),
                ..sparse_off
            };
            assert_eq!(c.effective_engine(), kind);
        }
    }

    #[test]
    fn host_threads_from_documents_every_input_class() {
        assert_eq!(host_threads_from(None), 0);
        assert_eq!(host_threads_from(Some("4")), 4);
        assert_eq!(host_threads_from(Some(" 8 ")), 8);
        for auto in ["", "0", "auto", "-1", "many"] {
            assert_eq!(host_threads_from(Some(auto)), 0, "{auto:?}");
        }
    }
}
