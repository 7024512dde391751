//! The synchronization block: scan/free registers and locks, per-core
//! header-lock registers, and the `ScanState` busy-bit register.

/// Which SB lock a statistic or operation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    Scan,
    Free,
    Header,
}

/// One SB operation, as recorded by the opt-in event log (see
/// [`SyncBlock::enable_event_log`]). Events carry the acting core and, for
/// register writes, the observed old and new values — enough for an
/// offline checker to replay the SB's state and flag any behaviour that
/// would violate the collector's three invariants (exactly-once claim,
/// exactly-once evacuation, exclusive tospace areas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbEvent {
    /// `init_pointers`: both registers initialised (start of a cycle).
    Init {
        scan: u32,
        free: u32,
    },
    AcquireScan {
        core: usize,
    },
    FailScan {
        core: usize,
    },
    ReleaseScan {
        core: usize,
    },
    SetScan {
        core: usize,
        from: u32,
        to: u32,
    },
    AcquireFree {
        core: usize,
    },
    FailFree {
        core: usize,
    },
    ReleaseFree {
        core: usize,
    },
    SetFree {
        core: usize,
        from: u32,
        to: u32,
    },
    LockHeader {
        core: usize,
        addr: u32,
    },
    FailHeader {
        core: usize,
        addr: u32,
    },
    UnlockHeader {
        core: usize,
        addr: u32,
    },
    SetBusy {
        core: usize,
    },
    ClearBusy {
        core: usize,
    },
    /// A core observed `scan == free` with every other busy bit clear and
    /// declared the collection finished (the atomic termination test).
    Termination {
        core: usize,
    },
}

/// An [`SbEvent`] stamped with the SB clock cycle it occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbEventRecord {
    /// SB cycle number ([`SyncBlock::begin_cycle`] count, adjusted by the
    /// engine so it matches the engine's cycle numbering).
    pub cycle: u64,
    pub event: SbEvent,
}

/// FNV-1a fingerprint of an SB event stream. Two runs of the engine are
/// SB-equivalent iff their fingerprints match: every event's kind, every
/// operand (core, address, register values) and every cycle stamp feeds
/// the hash, in stream order. The parallel-engine parity harness compares
/// this across engines and host-thread counts instead of shipping whole
/// event logs around.
pub fn event_fingerprint(events: &[SbEventRecord]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for rec in events {
        eat(rec.cycle);
        // (tag, a, b, c) canonical encoding of the event.
        let (tag, a, b, c) = match rec.event {
            SbEvent::Init { scan, free } => (0u64, u64::from(scan), u64::from(free), 0),
            SbEvent::AcquireScan { core } => (1, core as u64, 0, 0),
            SbEvent::FailScan { core } => (2, core as u64, 0, 0),
            SbEvent::ReleaseScan { core } => (3, core as u64, 0, 0),
            SbEvent::SetScan { core, from, to } => (4, core as u64, u64::from(from), u64::from(to)),
            SbEvent::AcquireFree { core } => (5, core as u64, 0, 0),
            SbEvent::FailFree { core } => (6, core as u64, 0, 0),
            SbEvent::ReleaseFree { core } => (7, core as u64, 0, 0),
            SbEvent::SetFree { core, from, to } => (8, core as u64, u64::from(from), u64::from(to)),
            SbEvent::LockHeader { core, addr } => (9, core as u64, u64::from(addr), 0),
            SbEvent::FailHeader { core, addr } => (10, core as u64, u64::from(addr), 0),
            SbEvent::UnlockHeader { core, addr } => (11, core as u64, u64::from(addr), 0),
            SbEvent::SetBusy { core } => (12, core as u64, 0, 0),
            SbEvent::ClearBusy { core } => (13, core as u64, 0, 0),
            SbEvent::Termination { core } => (14, core as u64, 0, 0),
        };
        eat(tag);
        eat(a);
        eat(b);
        eat(c);
    }
    h
}

/// Contention counters maintained by the SB model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Successful acquisitions per lock kind (scan, free, header).
    pub acquisitions: [u64; 3],
    /// Failed (stalled) acquisition attempts per lock kind.
    pub failed_attempts: [u64; 3],
}

impl SyncStats {
    fn idx(kind: LockKind) -> usize {
        match kind {
            LockKind::Scan => 0,
            LockKind::Free => 1,
            LockKind::Header => 2,
        }
    }

    /// Successful acquisitions of `kind`.
    pub fn acquired(&self, kind: LockKind) -> u64 {
        self.acquisitions[Self::idx(kind)]
    }

    /// Failed attempts (stall cycles at the SB) for `kind`.
    pub fn failed(&self, kind: LockKind) -> u64 {
        self.failed_attempts[Self::idx(kind)]
    }
}

/// The synchronization block of the GC coprocessor.
///
/// All methods are *synchronous*: they take effect immediately within the
/// calling core's tick. A `try_*` method returning `false` means the core
/// must stall this cycle and retry on its next tick (the SB would stall it
/// in hardware).
#[derive(Debug, Clone)]
pub struct SyncBlock {
    n_cores: usize,
    /// `scan` register (word address in tospace).
    scan: u32,
    /// `free` register (word address in tospace).
    free: u32,
    scan_owner: Option<usize>,
    free_owner: Option<usize>,
    /// One header-lock register per core; `None` = unlocked.
    header_regs: Vec<Option<u32>>,
    /// `ScanState`: one busy bit per core.
    busy: Vec<bool>,
    /// Number of set busy bits, maintained on every transition so the
    /// whole-register reads (`none_busy_except`, `busy_count`) are O(1) —
    /// they run in every idle core's poll loop, every cycle.
    busy_n: usize,
    /// Line-split extension: claimed-body offset of the object currently
    /// at `scan` (0 = unsplit / next claim starts a fresh object).
    scan_chunk_off: u32,
    /// Line-split extension: outstanding split objects as
    /// `(frame address, unfinished chunks)`. A handful of entries at most
    /// (bounded by the core count in practice).
    splits: Vec<(u32, u32)>,
    /// Register write ports: "at most one core may modify each of these
    /// two registers during a clock cycle" (paper Section V-C). Set on
    /// write, cleared by the engine at each cycle boundary; a second
    /// would-be writer cannot acquire the lock until the next cycle.
    scan_written: bool,
    free_written: bool,
    /// What-if ablation knob: pretend each register has one write port
    /// *per core*, so a same-cycle write no longer blocks the next
    /// acquirer. The locks themselves stay — genuine holds still enforce
    /// claim/evacuation atomicity — only the write-port conflict
    /// disappears. Not a paper configuration.
    multiport: bool,
    /// Incremental index of held header locks as `(addr, core)` pairs —
    /// the `Some` entries of `header_regs`. The hardware compares a lock
    /// attempt against all registers in parallel; scanning the whole
    /// vector per attempt made [`SyncBlock::try_lock_header`] O(n_cores)
    /// on the hottest simulator path. Conflict checks walk this list
    /// (O(#held), typically 0–2) instead; `header_regs` stays the
    /// authoritative register file and cross-checks the index under
    /// `debug_assert`.
    held_headers: Vec<(u32, u32)>,
    /// Sparse-engine wake lists (`None` = tracking off; the reference loop
    /// loop pays nothing). See [`SyncBlock::enable_wake_tracking`].
    wake: Option<WakeLists>,
    /// SB clock: number of `begin_cycle` calls (adjustable via
    /// `set_cycle` so event stamps match the engine's numbering).
    cycle: u64,
    /// Cycle-stamped operation log; `None` (the default) records nothing
    /// and costs nothing.
    events: Option<Vec<SbEventRecord>>,
    stats: SyncStats,
}

impl SyncBlock {
    /// Create an SB for `n_cores` cores (the paper's prototype supports up
    /// to 16; the model accepts any positive count).
    pub fn new(n_cores: usize) -> SyncBlock {
        assert!(n_cores > 0);
        SyncBlock {
            n_cores,
            scan: 0,
            free: 0,
            scan_owner: None,
            free_owner: None,
            header_regs: vec![None; n_cores],
            busy: vec![false; n_cores],
            busy_n: 0,
            scan_chunk_off: 0,
            // At most one outstanding split per claiming core: preallocate
            // so the simulation loop never allocates.
            splits: Vec::with_capacity(n_cores),
            scan_written: false,
            free_written: false,
            multiport: false,
            // At most one held header lock per core.
            held_headers: Vec::with_capacity(n_cores),
            wake: None,
            cycle: 0,
            events: None,
            stats: SyncStats::default(),
        }
    }

    // --- event log -----------------------------------------------------

    /// Turn on the cycle-stamped operation log. Intended for checkers and
    /// test harnesses; the engine leaves it off by default.
    pub fn enable_event_log(&mut self) {
        self.events = Some(Vec::new());
    }

    /// The recorded events, if logging is enabled.
    pub fn event_log(&self) -> Option<&[SbEventRecord]> {
        self.events.as_deref()
    }

    /// Take ownership of the recorded events (empty if logging was off).
    pub fn take_event_log(&mut self) -> Vec<SbEventRecord> {
        self.events.take().unwrap_or_default()
    }

    /// Current SB cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Align the SB clock with an external cycle counter (the engine does
    /// this after the sequential root phase, whose per-root `begin_cycle`
    /// calls undercount its multi-cycle cost).
    pub fn set_cycle(&mut self, cycle: u64) {
        assert!(cycle >= self.cycle, "SB clock may not go backwards");
        self.cycle = cycle;
    }

    /// Is the cycle-stamped operation log enabled? The engine must not
    /// fast-forward over lock-contention cycles while it is: every failed
    /// attempt emits a per-cycle event.
    #[inline]
    pub fn event_log_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Skip `k` dead cycles in one jump: each skipped cycle would merely
    /// have called [`SyncBlock::begin_cycle`] on an SB no core touches, so
    /// the write ports are re-armed once and the clock advances by `k`.
    /// (The ports *may* be armed on entry — e.g. a core sets `free` and
    /// then stalls on a memory port in the same tick — which is exactly
    /// the state the first skipped `begin_cycle` would have cleared.)
    #[inline]
    pub fn fast_forward(&mut self, k: u64) {
        if k > 0 {
            self.scan_written = false;
            self.free_written = false;
        }
        self.cycle += k;
    }

    /// Account `k` failed acquisition attempts of `kind` at once: a core
    /// stalled on a lock whose holder cannot move retries — and fails —
    /// identically every skipped cycle. Illegal while the event log is on
    /// (each failure would need its own cycle-stamped record).
    #[inline]
    pub fn bulk_fail(&mut self, kind: LockKind, k: u64) {
        debug_assert!(
            self.events.is_none(),
            "bulk_fail would drop per-cycle fail events"
        );
        self.stats.failed_attempts[SyncStats::idx(kind)] += k;
    }

    #[inline]
    fn log(&mut self, event: SbEvent) {
        if let Some(events) = &mut self.events {
            events.push(SbEventRecord {
                cycle: self.cycle,
                event,
            });
        }
    }

    /// Record that `core` detected termination (`scan == free`, no other
    /// busy bits). Called by the core microprogram, which is where the
    /// atomic ScanState + comparison read happens.
    pub fn log_termination(&mut self, core: usize) {
        self.log(SbEvent::Termination { core });
    }

    /// Number of cores this SB serves.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Enable or disable the multiport write-port relaxation (see the
    /// `multiport` field). Off by default — the paper's hardware has one
    /// write port per register.
    pub fn set_multiport(&mut self, on: bool) {
        self.multiport = on;
    }

    /// Is the multiport relaxation active?
    pub fn multiport(&self) -> bool {
        self.multiport
    }

    // --- scan/free registers -------------------------------------------

    /// Read the `scan` register (all cores may read simultaneously).
    #[inline]
    pub fn scan(&self) -> u32 {
        self.scan
    }

    /// Read the `free` register (all cores may read simultaneously).
    #[inline]
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Initialise both registers (done by core 1 at the start of a cycle).
    pub fn init_pointers(&mut self, scan: u32, free: u32) {
        self.scan = scan;
        self.free = free;
        self.log(SbEvent::Init { scan, free });
    }

    /// Write `scan`; only the lock owner may do this, at most once per
    /// clock cycle.
    #[inline]
    pub fn set_scan(&mut self, core: usize, value: u32) {
        assert_eq!(self.scan_owner, Some(core), "scan write without lock");
        debug_assert!(
            self.multiport || !self.scan_written,
            "two scan writes in one cycle"
        );
        self.log(SbEvent::SetScan {
            core,
            from: self.scan,
            to: value,
        });
        self.scan = value;
        self.scan_written = true;
    }

    /// Write `free`; only the lock owner may do this, at most once per
    /// clock cycle.
    #[inline]
    pub fn set_free(&mut self, core: usize, value: u32) {
        assert_eq!(self.free_owner, Some(core), "free write without lock");
        debug_assert!(
            self.multiport || !self.free_written,
            "two free writes in one cycle"
        );
        self.log(SbEvent::SetFree {
            core,
            from: self.free,
            to: value,
        });
        self.free = value;
        self.free_written = true;
        if let Some(w) = &mut self.wake {
            w.wake_empty();
        }
    }

    /// Cycle boundary: the engine calls this once per clock to re-arm the
    /// single write port of each register.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.scan_written = false;
        self.free_written = false;
        self.cycle += 1;
    }

    /// Attempt to acquire the `scan` lock. Zero-cost when uncontended,
    /// but the register's write port admits one writer per cycle: after a
    /// same-cycle write the next acquirer stalls until the next cycle.
    #[inline]
    pub fn try_acquire_scan(&mut self, core: usize) -> bool {
        if !self.multiport && self.scan_written && self.scan_owner.is_none() {
            self.stats.failed_attempts[0] += 1;
            self.log(SbEvent::FailScan { core });
            return false;
        }
        match self.scan_owner {
            None => {
                self.scan_owner = Some(core);
                self.stats.acquisitions[0] += 1;
                self.log(SbEvent::AcquireScan { core });
                true
            }
            Some(owner) => {
                debug_assert_ne!(owner, core, "recursive scan lock");
                self.stats.failed_attempts[0] += 1;
                self.log(SbEvent::FailScan { core });
                false
            }
        }
    }

    /// Release the `scan` lock. Cores parked on it stay parked: the
    /// hardware holds every loser of the arbitration at no cost, so the
    /// release only arms [`SyncBlock::take_scan_release`] for the engine
    /// to hand the lock to the waiters that can win it.
    #[inline]
    pub fn release_scan(&mut self, core: usize) {
        assert_eq!(self.scan_owner, Some(core), "scan release without lock");
        self.scan_owner = None;
        self.log(SbEvent::ReleaseScan { core });
        if let Some(w) = &mut self.wake {
            w.scan_released = true;
        }
    }

    /// The core currently holding the `scan` lock, if any.
    #[inline]
    pub fn scan_owner(&self) -> Option<usize> {
        self.scan_owner
    }

    /// Can the `scan` lock still be acquired in the current cycle? Not
    /// while it is held, and not after a write to `scan` used up the
    /// register's single write port — a release that wrote nothing (a
    /// line-split chunk claim) or a multiport SB leaves it open.
    #[inline]
    pub fn scan_acquirable(&self) -> bool {
        self.scan_owner.is_none() && (self.multiport || !self.scan_written)
    }

    /// Attempt to acquire the `free` lock. Zero-cost when uncontended,
    /// with the same one-write-per-cycle port limit as `scan`.
    #[inline]
    pub fn try_acquire_free(&mut self, core: usize) -> bool {
        if !self.multiport && self.free_written && self.free_owner.is_none() {
            self.stats.failed_attempts[1] += 1;
            self.log(SbEvent::FailFree { core });
            return false;
        }
        match self.free_owner {
            None => {
                self.free_owner = Some(core);
                self.stats.acquisitions[1] += 1;
                self.log(SbEvent::AcquireFree { core });
                true
            }
            Some(owner) => {
                debug_assert_ne!(owner, core, "recursive free lock");
                self.stats.failed_attempts[1] += 1;
                self.log(SbEvent::FailFree { core });
                false
            }
        }
    }

    /// Release the `free` lock.
    #[inline]
    pub fn release_free(&mut self, core: usize) {
        assert_eq!(self.free_owner, Some(core), "free release without lock");
        self.free_owner = None;
        self.log(SbEvent::ReleaseFree { core });
    }

    /// Does `core` currently hold the `scan` lock?
    #[inline]
    pub fn holds_scan(&self, core: usize) -> bool {
        self.scan_owner == Some(core)
    }

    /// Does `core` currently hold the `free` lock?
    #[inline]
    pub fn holds_free(&self, core: usize) -> bool {
        self.free_owner == Some(core)
    }

    // --- header-lock registers -----------------------------------------

    /// Attempt to lock the header at `addr` for `core`. The SB compares
    /// `addr` against every other core's header-lock register in parallel;
    /// a match means someone else holds that header and the core stalls.
    ///
    /// # Panics
    /// Panics if the core already holds a (different) header lock — each
    /// core owns exactly one header-lock register in hardware, and the
    /// algorithm never needs two.
    #[inline]
    pub fn try_lock_header(&mut self, core: usize, addr: u32) -> bool {
        assert!(
            self.header_regs[core].is_none() || self.header_regs[core] == Some(addr),
            "core {core} already holds a different header lock"
        );
        let taken = self
            .held_headers
            .iter()
            .any(|&(a, c)| a == addr && c != core as u32);
        debug_assert_eq!(
            taken,
            self.header_regs
                .iter()
                .enumerate()
                .any(|(c, &reg)| c != core && reg == Some(addr)),
            "held-header index out of sync with the register file"
        );
        if taken {
            self.stats.failed_attempts[2] += 1;
            self.log(SbEvent::FailHeader { core, addr });
            false
        } else {
            if self.header_regs[core] != Some(addr) {
                self.stats.acquisitions[2] += 1;
                self.log(SbEvent::LockHeader { core, addr });
                self.held_headers.push((addr, core as u32));
            }
            self.header_regs[core] = Some(addr);
            true
        }
    }

    /// Release `core`'s header lock.
    #[inline]
    pub fn unlock_header(&mut self, core: usize) {
        let addr = self.header_regs[core].expect("header unlock without lock");
        self.header_regs[core] = None;
        let idx = self
            .held_headers
            .iter()
            .position(|&(_, c)| c == core as u32)
            .expect("held-header index missing an entry");
        self.held_headers.swap_remove(idx);
        self.log(SbEvent::UnlockHeader { core, addr });
        if let Some(w) = &mut self.wake {
            w.wake_header(addr);
        }
    }

    /// The address currently locked by `core`, if any.
    #[inline]
    pub fn header_lock_of(&self, core: usize) -> Option<u32> {
        self.header_regs[core]
    }

    // --- ScanState busy bits -------------------------------------------

    /// Set `core`'s busy bit (entering the main scanning loop).
    #[inline]
    pub fn set_busy(&mut self, core: usize) {
        if !self.busy[core] {
            self.busy[core] = true;
            self.busy_n += 1;
        }
        self.log(SbEvent::SetBusy { core });
    }

    /// Clear `core`'s busy bit.
    #[inline]
    pub fn clear_busy(&mut self, core: usize) {
        if self.busy[core] {
            self.busy[core] = false;
            self.busy_n -= 1;
            if let Some(w) = &mut self.wake {
                w.wake_empty();
            }
        }
        self.log(SbEvent::ClearBusy { core });
    }

    /// Is `core` busy?
    #[inline]
    pub fn is_busy(&self, core: usize) -> bool {
        self.busy[core]
    }

    /// Atomic read of the whole `ScanState` register: true when *no* core
    /// other than `observer` is busy. Used together with the `scan == free`
    /// comparison for termination detection.
    #[inline]
    pub fn none_busy_except(&self, observer: usize) -> bool {
        self.busy_n == 0 || (self.busy_n == 1 && self.busy[observer])
    }

    /// Number of busy cores (monitoring).
    #[inline]
    pub fn busy_count(&self) -> usize {
        self.busy_n
    }

    // --- line-split extension (paper's future work item 1) -------------

    /// Claimed-body offset within the object currently at `scan`; only
    /// meaningful (and only mutated) under the scan lock.
    #[inline]
    pub fn scan_chunk_off(&self) -> u32 {
        self.scan_chunk_off
    }

    /// Set the claimed-body offset (scan-lock holder only).
    #[inline]
    pub fn set_scan_chunk_off(&mut self, core: usize, off: u32) {
        assert_eq!(
            self.scan_owner,
            Some(core),
            "chunk-off write without scan lock"
        );
        self.scan_chunk_off = off;
    }

    /// Register a split object with `chunks` outstanding chunks (called by
    /// the first claimant, under the scan lock).
    #[inline]
    pub fn split_begin(&mut self, core: usize, frame: u32, chunks: u32) {
        assert_eq!(self.scan_owner, Some(core), "split_begin without scan lock");
        debug_assert!(chunks >= 2, "single-chunk objects are not split");
        debug_assert!(!self.splits.iter().any(|&(f, _)| f == frame));
        self.splits.push((frame, chunks));
    }

    /// Report one finished chunk of `frame`; returns `true` for the last
    /// finisher, which must blacken the object.
    #[inline]
    pub fn split_finish(&mut self, frame: u32) -> bool {
        let idx = self
            .splits
            .iter()
            .position(|&(f, _)| f == frame)
            .expect("split_finish on unregistered frame");
        self.splits[idx].1 -= 1;
        if self.splits[idx].1 == 0 {
            self.splits.swap_remove(idx);
            true
        } else {
            false
        }
    }

    /// Contention statistics.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// Consume the quiescent SB, yielding its statistics without a clone
    /// (end-of-collection epilogue).
    pub fn into_stats(self) -> SyncStats {
        self.stats
    }

    /// Assert that no lock is held (end-of-cycle hygiene check).
    pub fn assert_quiescent(&self) {
        assert!(self.scan_owner.is_none(), "scan lock leaked");
        assert!(self.free_owner.is_none(), "free lock leaked");
        assert!(
            self.header_regs.iter().all(Option::is_none),
            "header lock leaked"
        );
        assert!(self.held_headers.is_empty(), "held-header index leaked");
        assert!(self.busy.iter().all(|&b| !b), "busy bit leaked");
        assert!(self.splits.is_empty(), "split object leaked");
        assert_eq!(self.scan_chunk_off, 0, "chunk offset leaked");
    }

    // --- sparse-engine wake lists --------------------------------------

    /// Turn on the wake lists the sparse engine parks stalled cores on.
    /// Off by default — the reference loop and the checkers never consult
    /// them, and every hook below is a `None` test when off.
    pub fn enable_wake_tracking(&mut self) {
        self.wake = Some(WakeLists::new(self.n_cores));
    }

    /// Park `core` on the scan lock. It stays listed across releases
    /// until the engine wakes it ([`SyncBlock::cancel_park`]).
    #[inline]
    pub fn park_on_scan_release(&mut self, core: usize) {
        let w = self.wake.as_mut().expect("wake tracking off");
        w.scan_waiters |= 1u64 << core;
    }

    /// The cores parked on the scan lock (a bitmask over core indices)
    /// if it has been released since the last call, else `0`. One-shot:
    /// the engine asks after every core tick (a tick releases at most
    /// once) and picks whom to wake from the mask.
    #[inline]
    pub fn take_scan_release(&mut self) -> u64 {
        let Some(w) = &mut self.wake else { return 0 };
        if std::mem::take(&mut w.scan_released) {
            w.scan_waiters
        } else {
            0
        }
    }

    /// Park `core` until the header lock on `addr` is released.
    #[inline]
    pub fn park_on_header(&mut self, core: usize, addr: u32) {
        let w = self.wake.as_mut().expect("wake tracking off");
        w.header[core] = addr;
        w.header_parked |= 1u64 << core;
    }

    /// Park `core` in the empty-worklist spin: woken when `free` moves or
    /// a busy bit clears (either can change the termination test it is
    /// polling).
    #[inline]
    pub fn park_on_empty(&mut self, core: usize) {
        let w = self.wake.as_mut().expect("wake tracking off");
        w.empty |= 1u64 << core;
    }

    /// Remove `core` from every wake list (the engine woke it by other
    /// means — a timer, a memory retirement, or the done broadcast). A
    /// no-op if the core is not parked here or tracking is off.
    #[inline]
    pub fn cancel_park(&mut self, core: usize) {
        if let Some(w) = &mut self.wake {
            w.scan_waiters &= !(1u64 << core);
            w.empty &= !(1u64 << core);
            w.header_parked &= !(1u64 << core);
        }
    }

    /// Cores woken by SB operations since the last
    /// [`SyncBlock::clear_wakes`], in ascending-core order per wake event.
    /// Woken cores have already been removed from their lists.
    #[inline]
    pub fn wakes(&self) -> &[usize] {
        self.wake.as_ref().map_or(&[], |w| &w.woken)
    }

    /// Forget the drained wake notifications.
    #[inline]
    pub fn clear_wakes(&mut self) {
        if let Some(w) = &mut self.wake {
            w.woken.clear();
        }
    }
}

/// Per-resource lists of parked cores for the sparse engine. A core on a
/// list has proven its next retry must fail until the listed SB operation
/// happens; the hooks in [`SyncBlock::unlock_header`],
/// [`SyncBlock::set_free`] and [`SyncBlock::clear_busy`] move it to
/// `woken` the moment that operation executes. The scan lock is the
/// exception: of its waiters only the arbitration winner's retry can
/// succeed, so [`SyncBlock::release_scan`] wakes nobody and flags the
/// release for the engine, which knows the tick order. Spurious wakes
/// are safe (the core re-ticks and re-parks); only a *missed* wake would
/// break the sparse engine's bit-exactness.
#[derive(Debug, Clone)]
struct WakeLists {
    /// Cores parked on the scan lock (bitmask).
    scan_waiters: u64,
    /// The scan lock was released and the engine has not yet handed it
    /// off to `scan_waiters`.
    scan_released: bool,
    /// Cores parked in the empty-worklist spin (bitmask).
    empty: u64,
    /// Cores parked on a header lock (bitmask).
    header_parked: u64,
    /// Per-core header address the core is parked on (meaningful only
    /// for the cores in `header_parked`).
    header: Vec<u32>,
    /// Cores woken since the engine last drained, in wake order.
    woken: Vec<usize>,
}

impl WakeLists {
    fn new(n_cores: usize) -> WakeLists {
        assert!(n_cores <= 64, "wake bitmasks hold at most 64 cores");
        WakeLists {
            scan_waiters: 0,
            scan_released: false,
            empty: 0,
            header_parked: 0,
            header: vec![0; n_cores],
            woken: Vec::with_capacity(n_cores),
        }
    }

    #[inline]
    fn wake_empty(&mut self) {
        let mut mask = std::mem::take(&mut self.empty);
        while mask != 0 {
            self.woken.push(mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
    }

    #[inline]
    fn wake_header(&mut self, addr: u32) {
        let mut mask = self.header_parked;
        while mask != 0 {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.header[c] == addr {
                self.header_parked &= !(1u64 << c);
                self.woken.push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_lock_mutual_exclusion() {
        let mut sb = SyncBlock::new(4);
        assert!(sb.try_acquire_scan(0));
        assert!(!sb.try_acquire_scan(1));
        assert!(sb.holds_scan(0));
        sb.release_scan(0);
        assert!(sb.try_acquire_scan(1));
        assert_eq!(sb.stats().acquired(LockKind::Scan), 2);
        assert_eq!(sb.stats().failed(LockKind::Scan), 1);
        sb.release_scan(1);
    }

    #[test]
    fn free_lock_independent_of_scan_lock() {
        let mut sb = SyncBlock::new(2);
        assert!(sb.try_acquire_scan(0));
        assert!(sb.try_acquire_free(1));
        assert!(!sb.try_acquire_free(0));
        sb.release_scan(0);
        sb.release_free(1);
        sb.assert_quiescent();
    }

    #[test]
    #[should_panic(expected = "scan write without lock")]
    fn scan_write_requires_lock() {
        let mut sb = SyncBlock::new(2);
        sb.set_scan(0, 10);
    }

    #[test]
    fn pointer_registers_readable_by_all() {
        let mut sb = SyncBlock::new(2);
        sb.init_pointers(100, 100);
        assert_eq!(sb.scan(), 100);
        assert!(sb.try_acquire_free(1));
        sb.set_free(1, 120);
        sb.release_free(1);
        assert_eq!(sb.free(), 120);
        assert_eq!(sb.scan(), 100);
    }

    #[test]
    fn header_lock_parallel_compare() {
        let mut sb = SyncBlock::new(3);
        assert!(sb.try_lock_header(0, 0xA0));
        assert!(sb.try_lock_header(1, 0xB0)); // different header, fine
        assert!(!sb.try_lock_header(2, 0xA0)); // held by core 0
        sb.unlock_header(0);
        assert!(sb.try_lock_header(2, 0xA0)); // now free
        sb.unlock_header(1);
        sb.unlock_header(2);
        sb.assert_quiescent();
    }

    #[test]
    fn header_lock_reacquire_same_addr_is_idempotent() {
        let mut sb = SyncBlock::new(2);
        assert!(sb.try_lock_header(0, 7));
        assert!(sb.try_lock_header(0, 7));
        assert_eq!(sb.stats().acquired(LockKind::Header), 1);
        sb.unlock_header(0);
    }

    #[test]
    #[should_panic(expected = "already holds a different header lock")]
    fn one_header_lock_per_core() {
        let mut sb = SyncBlock::new(2);
        assert!(sb.try_lock_header(0, 1));
        let _ = sb.try_lock_header(0, 2);
    }

    #[test]
    fn busy_bits_and_termination_read() {
        let mut sb = SyncBlock::new(3);
        assert!(sb.none_busy_except(0));
        sb.set_busy(1);
        assert!(!sb.none_busy_except(0));
        assert!(sb.none_busy_except(1)); // the observer's own bit is excluded
        sb.clear_busy(1);
        assert!(sb.none_busy_except(0));
    }

    #[test]
    fn same_cycle_release_reacquire() {
        // Models the paper's "released by one core and reacquired by
        // another core in the same cycle": both happen within one engine
        // cycle as long as the releaser ticks first.
        let mut sb = SyncBlock::new(2);
        assert!(sb.try_acquire_free(0));
        sb.release_free(0);
        assert!(sb.try_acquire_free(1));
        sb.release_free(1);
    }

    #[test]
    #[should_panic(expected = "scan lock leaked")]
    fn quiescence_check_catches_leak() {
        let mut sb = SyncBlock::new(2);
        assert!(sb.try_acquire_scan(0));
        sb.assert_quiescent();
    }

    #[test]
    fn event_fingerprint_separates_streams_by_operand_and_stamp() {
        let rec = |cycle, event| SbEventRecord { cycle, event };
        let base = vec![
            rec(0, SbEvent::Init { scan: 8, free: 8 }),
            rec(1, SbEvent::AcquireScan { core: 0 }),
            rec(
                1,
                SbEvent::LockHeader {
                    core: 0,
                    addr: 0x40,
                },
            ),
        ];
        let fp = event_fingerprint(&base);
        // Deterministic, and equal streams agree.
        assert_eq!(fp, event_fingerprint(&base.clone()));
        // A changed operand, kind, cycle stamp, order, or length each
        // produce a different fingerprint.
        let mut addr = base.clone();
        addr[2] = rec(
            1,
            SbEvent::LockHeader {
                core: 0,
                addr: 0x44,
            },
        );
        let mut kind = base.clone();
        kind[1] = rec(1, SbEvent::AcquireFree { core: 0 });
        let mut stamp = base.clone();
        stamp[1] = rec(2, SbEvent::AcquireScan { core: 0 });
        let mut order = base.clone();
        order.swap(1, 2);
        let mut longer = base.clone();
        longer.push(rec(3, SbEvent::Termination { core: 0 }));
        for other in [&addr, &kind, &stamp, &order, &longer] {
            assert_ne!(fp, event_fingerprint(other));
        }
        assert_ne!(event_fingerprint(&[]), fp);
    }

    #[test]
    fn event_log_off_by_default() {
        let mut sb = SyncBlock::new(2);
        assert!(sb.try_acquire_scan(0));
        sb.release_scan(0);
        assert!(sb.event_log().is_none());
        assert!(sb.take_event_log().is_empty());
    }

    #[test]
    fn event_log_records_cycle_stamped_operations() {
        let mut sb = SyncBlock::new(2);
        sb.enable_event_log();
        sb.init_pointers(100, 100);
        sb.begin_cycle(); // cycle 1
        assert!(sb.try_acquire_free(0));
        sb.set_free(0, 110);
        sb.release_free(0);
        sb.begin_cycle(); // cycle 2
        assert!(sb.try_lock_header(1, 0xA0));
        assert!(!sb.try_lock_header(0, 0xA0));
        sb.unlock_header(1);
        sb.log_termination(0);
        let events = sb.take_event_log();
        assert_eq!(
            events,
            vec![
                SbEventRecord {
                    cycle: 0,
                    event: SbEvent::Init {
                        scan: 100,
                        free: 100
                    }
                },
                SbEventRecord {
                    cycle: 1,
                    event: SbEvent::AcquireFree { core: 0 }
                },
                SbEventRecord {
                    cycle: 1,
                    event: SbEvent::SetFree {
                        core: 0,
                        from: 100,
                        to: 110
                    }
                },
                SbEventRecord {
                    cycle: 1,
                    event: SbEvent::ReleaseFree { core: 0 }
                },
                SbEventRecord {
                    cycle: 2,
                    event: SbEvent::LockHeader {
                        core: 1,
                        addr: 0xA0
                    }
                },
                SbEventRecord {
                    cycle: 2,
                    event: SbEvent::FailHeader {
                        core: 0,
                        addr: 0xA0
                    }
                },
                SbEventRecord {
                    cycle: 2,
                    event: SbEvent::UnlockHeader {
                        core: 1,
                        addr: 0xA0
                    }
                },
                SbEventRecord {
                    cycle: 2,
                    event: SbEvent::Termination { core: 0 }
                },
            ]
        );
    }

    #[test]
    fn fast_forward_advances_clock_and_bulk_fail_accounts() {
        let mut sb = SyncBlock::new(2);
        sb.begin_cycle();
        assert!(sb.try_acquire_scan(0));
        // Core 1 stalls on the scan lock for 10 skipped cycles.
        assert!(!sb.try_acquire_scan(1));
        sb.fast_forward(9);
        sb.bulk_fail(LockKind::Scan, 9);
        assert_eq!(sb.cycle(), 10);
        assert_eq!(sb.stats().failed(LockKind::Scan), 10);
        sb.release_scan(0);
    }

    #[test]
    fn single_port_blocks_second_writer_in_same_cycle() {
        let mut sb = SyncBlock::new(2);
        sb.begin_cycle();
        assert!(sb.try_acquire_scan(0));
        sb.set_scan(0, 4);
        sb.release_scan(0);
        // The register was written this cycle: the port is busy.
        assert!(!sb.try_acquire_scan(1));
        sb.begin_cycle();
        assert!(sb.try_acquire_scan(1));
        sb.release_scan(1);
        assert_eq!(sb.stats().failed(LockKind::Scan), 1);
    }

    #[test]
    fn multiport_removes_write_port_conflict_only() {
        let mut sb = SyncBlock::new(2);
        sb.set_multiport(true);
        assert!(sb.multiport());
        sb.begin_cycle();
        assert!(sb.try_acquire_scan(0));
        sb.set_scan(0, 4);
        sb.release_scan(0);
        // Same cycle, second writer: no port conflict under multiport.
        assert!(sb.try_acquire_scan(1));
        sb.set_scan(1, 8);
        sb.release_scan(1);
        assert_eq!(sb.scan(), 8);
        assert_eq!(sb.stats().failed(LockKind::Scan), 0);
        // Genuine holds still exclude — atomicity is untouched.
        assert!(sb.try_acquire_free(0));
        assert!(!sb.try_acquire_free(1));
        sb.release_free(0);
        sb.assert_quiescent();
    }

    #[test]
    fn set_cycle_aligns_the_clock() {
        let mut sb = SyncBlock::new(1);
        sb.begin_cycle();
        assert_eq!(sb.cycle(), 1);
        sb.set_cycle(10);
        sb.begin_cycle();
        assert_eq!(sb.cycle(), 11);
    }

    #[test]
    fn held_header_index_tracks_lock_churn() {
        // Exercise acquire / idempotent re-acquire / conflicting attempt /
        // swap-removed release; the debug_assert in try_lock_header
        // cross-checks the index against the register file on every call.
        let mut sb = SyncBlock::new(4);
        assert!(sb.try_lock_header(0, 0xA0));
        assert!(sb.try_lock_header(1, 0xB0));
        assert!(sb.try_lock_header(2, 0xC0));
        assert!(sb.try_lock_header(1, 0xB0)); // idempotent: no new entry
        assert!(!sb.try_lock_header(3, 0xB0));
        sb.unlock_header(0); // swap_remove moves the tail entry
        assert!(!sb.try_lock_header(0, 0xC0));
        assert!(sb.try_lock_header(0, 0xA0)); // released addr is free again
        sb.unlock_header(0);
        sb.unlock_header(1);
        assert!(sb.try_lock_header(3, 0xB0));
        sb.unlock_header(2);
        sb.unlock_header(3);
        sb.assert_quiescent();
    }

    #[test]
    fn scan_release_flags_the_hand_off_and_leaves_waiters_listed() {
        let mut sb = SyncBlock::new(4);
        sb.enable_wake_tracking();

        // A release past parked waiters wakes nobody by itself: it
        // raises the one-shot flag and the waiters stay listed.
        assert!(sb.try_acquire_scan(0));
        sb.park_on_scan_release(2);
        sb.park_on_scan_release(1);
        assert_eq!(sb.take_scan_release(), 0, "nothing released yet");
        sb.release_scan(0);
        assert!(sb.wakes().is_empty());
        assert_eq!(sb.take_scan_release(), 0b110);
        assert_eq!(sb.take_scan_release(), 0, "the flag is one-shot");

        // The engine's wake takes the elected core off the list; the
        // loser is still there at the next release.
        sb.cancel_park(1);
        assert!(sb.try_acquire_scan(1));
        sb.release_scan(1);
        assert_eq!(sb.take_scan_release(), 0b100);
        sb.cancel_park(2);

        // A release nobody waits for has nobody to hand off to.
        assert!(sb.try_acquire_scan(2));
        sb.release_scan(2);
        assert_eq!(sb.take_scan_release(), 0);
        sb.assert_quiescent();
    }

    #[test]
    fn scan_is_acquirable_again_in_the_releasing_cycle_only_past_an_unspent_port() {
        let mut sb = SyncBlock::new(2);
        sb.begin_cycle();
        assert!(sb.scan_acquirable());
        assert!(sb.try_acquire_scan(0));
        assert!(!sb.scan_acquirable(), "held");
        // A release that wrote nothing (a line-split chunk claim only
        // moves the chunk offset) leaves the write port open.
        sb.set_scan_chunk_off(0, 4);
        sb.release_scan(0);
        assert!(sb.scan_acquirable());
        // A release that advanced `scan` spent the port for this cycle.
        assert!(sb.try_acquire_scan(1));
        sb.set_scan_chunk_off(1, 0);
        sb.set_scan(1, 8);
        sb.release_scan(1);
        assert!(!sb.scan_acquirable());
        sb.begin_cycle();
        assert!(sb.scan_acquirable());
        // A multiport SB has no port to spend.
        sb.set_multiport(true);
        assert!(sb.try_acquire_scan(0));
        sb.set_scan(0, 12);
        sb.release_scan(0);
        assert!(sb.scan_acquirable());
        sb.assert_quiescent();
    }

    #[test]
    fn wake_lists_fire_on_unlock_setfree_and_clearbusy() {
        let mut sb = SyncBlock::new(4);
        sb.enable_wake_tracking();
        assert!(sb.wakes().is_empty());

        // Header wake matches the released address only.
        assert!(sb.try_lock_header(0, 0xA0));
        assert!(sb.try_lock_header(1, 0xB0));
        sb.park_on_header(2, 0xA0);
        sb.park_on_header(3, 0xB0);
        sb.unlock_header(0);
        assert_eq!(sb.wakes(), &[2]);
        sb.clear_wakes();
        sb.unlock_header(1);
        assert_eq!(sb.wakes(), &[3]);
        sb.clear_wakes();

        // set_free and a real busy-bit clear both wake the empty list.
        sb.park_on_empty(3);
        assert!(sb.try_acquire_free(0));
        sb.set_free(0, 8);
        sb.release_free(0);
        assert_eq!(sb.wakes(), &[3]);
        sb.clear_wakes();
        sb.park_on_empty(1);
        sb.set_busy(0);
        assert!(sb.wakes().is_empty()); // setting a bit wakes nobody
        sb.clear_busy(0);
        assert_eq!(sb.wakes(), &[1]);
        sb.clear_wakes();
        sb.clear_busy(0); // already clear: no transition, no wake
        assert!(sb.wakes().is_empty());
        sb.assert_quiescent();
    }

    #[test]
    fn cancel_park_removes_a_core_from_every_list() {
        let mut sb = SyncBlock::new(2);
        sb.enable_wake_tracking();
        assert!(sb.try_acquire_scan(0));
        sb.park_on_scan_release(1);
        sb.park_on_empty(1);
        assert!(sb.try_lock_header(0, 4));
        sb.park_on_header(1, 4);
        sb.cancel_park(1);
        sb.release_scan(0);
        sb.unlock_header(0);
        assert!(sb.wakes().is_empty());
        assert_eq!(sb.take_scan_release(), 0);
    }
}
