//! The per-core microprogram of the GC coprocessor, as an explicit state
//! machine (paper Section V-B: "a control unit that implements the garbage
//! collection algorithm as a single microprogram").
//!
//! Each simulated cycle, a core executes one `tick`. Within a tick it may
//! chain several zero-cost actions — the hardware performs up to two ALU
//! operations and initiates up to four memory operations per clock cycle,
//! and uncontended lock acquisitions are free — but any incomplete memory
//! access or contended lock consumes the cycle and is recorded as a stall
//! with its cause (the basis of Table II). A tick that ends by issuing an
//! access its next state waits on, and that the memory system says
//! cannot retire by the next tick ([`Issue::Later`]), reports
//! [`TickOutcome::Awaiting`]: every retry until the access retires would
//! stall, so the engine's sparse rule parks the core at issue. Six sites
//! do this: the four random-address loads (the scan header, a claim's
//! first body word, the ablation-C probe and the child header), the
//! pipelined next body load of a copy, and the fromspace header store
//! whose gray twin overflowed the FIFO (the overflow store waits for its
//! port). A zero-latency burst continuation on the fixed backend may
//! retire within the next tick ([`Issue::Soon`]) and yields as plain
//! progress.
//!
//! The main scanning loop (paper Section IV):
//!
//! ```text
//! with locked scan:   read header of object at scan; scan += size
//! for each ptr in object:
//!     with locked header of c = *ptr:
//!         read header of c
//!         if c not marked:
//!             with locked free:
//!                 mark c; install forwarding pointer; install backlink
//!                 at free; free += size
//!     replace ptr in tospace copy
//! blacken object
//! ```
//!
//! The lock ordering `scan < header < free` is structural in the state
//! machine: no state that holds a header lock ever touches the scan lock,
//! and no state that holds the free lock acquires anything else. Deadlock
//! freedom follows (Habermann).

use hwgc_heap::header::{self, Header};
use hwgc_heap::{Addr, Color, Heap, NULL};
use hwgc_memsim::{HeaderFifo, Issue, MemBackend, MemorySystem, Port};
use hwgc_sync::SyncBlock;

use crate::stats::{StallBreakdown, StallReason};

/// Work performed, shared across cores (written only inside ticks, which
/// the engine serializes).
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkCounters {
    pub objects_copied: u64,
    pub words_copied: u64,
    pub pointers_visited: u64,
    /// Line-split extension: sub-object chunks claimed.
    pub chunks_claimed: u64,
}

/// Everything a core touches during a tick, generic over the memory
/// backend (defaulted so existing `Ctx<'_>` spellings keep meaning the
/// fixed-latency model).
pub struct Ctx<'a, B: MemBackend = MemorySystem> {
    pub heap: &'a mut Heap,
    pub sb: &'a mut SyncBlock,
    pub mem: &'a mut B,
    pub fifo: &'a mut HeaderFifo,
    pub done: &'a mut bool,
    pub counters: &'a mut WorkCounters,
    pub test_before_lock: bool,
    /// `Some(L)`: claims take at most `L` body words (extension 1).
    pub line_split: Option<u32>,
}

/// Microprogram states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Compare `scan` to `free` (no lock needed: both registers are
    /// readable by all cores simultaneously); claim work, spin, or detect
    /// termination.
    Poll,
    /// Holding the scan lock, waiting for the frame header load.
    ScanHeaderWait,
    /// Issue the body load for the current word.
    BodyStart,
    /// Waiting for the current body-load word.
    CopyWait,
    /// Ablation C only: unlocked probe of the child header in flight.
    ChildProbeWait,
    /// Acquire the child's header lock.
    ChildLock,
    /// Holding the child's header lock, waiting for its header load.
    ChildHeaderWait,
    /// Holding the header lock, acquire the free lock to evacuate.
    ChildEvacFree,
    /// Holding header + free locks, issue the fromspace header store and
    /// try to buffer the gray frame header in the FIFO.
    ChildEvacStore,
    /// FIFO overflowed: the gray frame header must go to memory too.
    ChildEvacOverflow,
    /// Issue the body store for the current word (`store_val`).
    StoreWord,
    /// Claim finished: blacken (whole object / last chunk of a split
    /// object) or hand back to Poll (non-final chunk).
    ClaimDone,
    /// Issue the final (black) header store for the scanned object.
    Blacken,
    /// Collection finished; wait for this core's buffers to drain.
    Drain,
    /// Terminal state.
    Done,
}

impl State {
    /// Number of microprogram states.
    pub const COUNT: u8 = 15;

    /// Every state, in discriminant order (`from_index` inverts).
    pub const ALL: [State; State::COUNT as usize] = [
        State::Poll,
        State::ScanHeaderWait,
        State::BodyStart,
        State::CopyWait,
        State::ChildProbeWait,
        State::ChildLock,
        State::ChildHeaderWait,
        State::ChildEvacFree,
        State::ChildEvacStore,
        State::ChildEvacOverflow,
        State::StoreWord,
        State::ClaimDone,
        State::Blacken,
        State::Drain,
        State::Done,
    ];

    /// Compact index of this state (for the observability event bus,
    /// which carries states as `u8` to avoid a crate dependency cycle).
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Inverse of [`State::index`].
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn from_index(index: u8) -> State {
        State::ALL[index as usize]
    }

    /// Display name of this state.
    pub fn name(self) -> &'static str {
        match self {
            State::Poll => "Poll",
            State::ScanHeaderWait => "ScanHeaderWait",
            State::BodyStart => "BodyStart",
            State::CopyWait => "CopyWait",
            State::ChildProbeWait => "ChildProbeWait",
            State::ChildLock => "ChildLock",
            State::ChildHeaderWait => "ChildHeaderWait",
            State::ChildEvacFree => "ChildEvacFree",
            State::ChildEvacStore => "ChildEvacStore",
            State::ChildEvacOverflow => "ChildEvacOverflow",
            State::StoreWord => "StoreWord",
            State::ClaimDone => "ClaimDone",
            State::Blacken => "Blacken",
            State::Drain => "Drain",
            State::Done => "Done",
        }
    }

    /// [`State::name`] by index — the `fn(u8) -> &'static str` the event
    /// bus carries alongside sampled state vectors.
    pub fn name_of(index: u8) -> &'static str {
        State::from_index(index).name()
    }
}

/// Result of executing one micro-step.
enum Step {
    /// Keep executing in the same cycle (zero-cost chained action).
    Chain(State),
    /// Productive work consumed the cycle; resume in `State` next cycle.
    Yield(State),
    /// [`Step::Yield`] after issuing an access that `State` waits for and
    /// that cannot retire by the next tick: `State` stalls with the given
    /// reason until the access retires.
    Await(State, StallReason),
    /// No progress; record the stall and retry `State` next cycle.
    Stall(State, StallReason),
}

/// Yield into `next`, whose retry waits for the access this tick just
/// issued and stalls with `reason` until it retires: [`Step::Await`] when
/// the access cannot retire by the next tick.
#[inline]
fn await_issue(issue: Issue, next: State, reason: StallReason) -> Step {
    debug_assert!(issue.issued(), "the awaited buffer must be free here");
    if issue == Issue::Later {
        Step::Await(next, reason)
    } else {
        Step::Yield(next)
    }
}

/// What a full tick amounted to, as the engine's park rule sees it: a
/// stalled or awaiting core retries against frozen inputs until its
/// wake condition fires, so it can park instead of ticking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// The core did productive work (or transitioned state) this cycle.
    Progress,
    /// Progress that ended by issuing an access the next state waits on
    /// and that cannot retire by the next tick ([`Issue::Later`]): every
    /// retry stalls with the given reason, against frozen inputs, until
    /// that access retires.
    Awaiting(StallReason),
    /// The tick ended in a stall: the core will retry the same failing
    /// step, against the same frozen inputs, every cycle until the cause
    /// resolves.
    Stalled(StallReason),
    /// Terminal [`State::Done`] — the core ticks as a no-op forever.
    Parked,
}

/// Register state for the object currently being scanned / the child
/// currently being processed.
#[derive(Debug, Default, Clone, Copy)]
struct ObjRegs {
    /// Tospace frame of the object being scanned.
    frame: Addr,
    /// Fromspace original (from the frame's backlink).
    backlink: Addr,
    pi: u32,
    delta: u32,
    /// Next body word index (0..pi+delta).
    idx: u32,
    /// Fromspace address of the child under consideration.
    child: Addr,
    child_pi: u32,
    child_delta: u32,
    /// Tospace frame allocated for the child.
    child_dst: Addr,
    /// Value to store into body word `idx`.
    store_val: u32,
    /// One past the last body word of this claim (== pi + delta unless the
    /// object was split).
    end: u32,
    /// Is this claim a chunk of a split object?
    split: bool,
    /// Did the gray header of the child being evacuated fit the FIFO?
    fifo_ok: bool,
}

/// One microprogrammed core.
pub struct CoreSm {
    id: usize,
    state: State,
    regs: ObjRegs,
    /// Stall-cycle accounting for this core.
    pub stalls: StallBreakdown,
}

impl CoreSm {
    /// Core with the given index (index order = static lock priority).
    pub fn new(id: usize) -> CoreSm {
        CoreSm {
            id,
            state: State::Poll,
            regs: ObjRegs::default(),
            stalls: StallBreakdown::default(),
        }
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current state (for the engine's termination test and diagnostics).
    pub fn state(&self) -> State {
        self.state
    }

    /// The fromspace header address this core will try to lock on its next
    /// tick (it is parked in [`State::ChildLock`]), if any. Input to
    /// contention-aware scheduling policies ([`crate::schedule`]).
    pub fn pending_header(&self) -> Option<Addr> {
        (self.state == State::ChildLock).then_some(self.regs.child)
    }

    /// How many of this core's coming ticks (at most `cap`) are
    /// *stream ticks* as far as the core alone can tell: in
    /// [`State::CopyWait`], the tick consumes body word `idx`, finds it
    /// pass-through — a data word, or a pointer slot whose fromspace
    /// word is `NULL` — stores it and issues the load for `idx + 1`,
    /// touching neither the SB nor the FIFO. The claim's last word is
    /// never counted (its tick chains into `ClaimDone`), so `0` unless
    /// at least two words are left. Fromspace bodies are immutable
    /// during a stop-the-world cycle, so the answer cannot go stale.
    pub(crate) fn stream_len(&self, heap: &Heap, cap: u64) -> u64 {
        let r = &self.regs;
        if self.state != State::CopyWait {
            return 0;
        }
        let max = u64::from(r.end - 1 - r.idx).min(cap);
        let slots = u64::from(r.pi.saturating_sub(r.idx)).min(max);
        let src = r.backlink + 2 + r.idx;
        (0..slots)
            .find(|&j| heap.word(src + j as u32) != NULL)
            .unwrap_or(max)
    }

    /// Execute `k` stream ticks in one step (`k` at most what
    /// [`CoreSm::stream_len`] just returned): copy words `idx..idx + k`
    /// through, count the null pointer slots among them as visited, and
    /// stay in [`State::CopyWait`] on word `idx + k`.
    pub(crate) fn stream_advance(&mut self, heap: &mut Heap, counters: &mut WorkCounters, k: u32) {
        debug_assert!(self.stream_len(heap, u64::from(k)) == u64::from(k));
        let r = &mut self.regs;
        let src = (r.backlink + 2 + r.idx) as usize;
        let dst = r.frame + 2 + r.idx;
        heap.words_mut()
            .copy_within(src..src + k as usize, dst as usize);
        counters.pointers_visited += u64::from(r.pi.min(r.idx + k) - r.pi.min(r.idx));
        r.idx += k;
        r.store_val = heap.word(dst + k - 1);
    }

    /// Execute one clock cycle.
    pub fn tick<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> TickOutcome {
        if self.state == State::Done {
            return TickOutcome::Parked;
        }
        let mut state = self.state;
        // A tick chains at most a handful of zero-cost actions; the bound
        // catches accidental intra-cycle loops.
        for _ in 0..16 {
            match self.step(state, ctx) {
                Step::Chain(next) => state = next,
                Step::Yield(next) => {
                    self.state = next;
                    return TickOutcome::Progress;
                }
                Step::Await(next, reason) => {
                    self.state = next;
                    return TickOutcome::Awaiting(reason);
                }
                Step::Stall(next, reason) => {
                    self.stalls.record(reason);
                    self.state = next;
                    return TickOutcome::Stalled(reason);
                }
            }
        }
        panic!(
            "core {} chained too many micro-steps in state {:?}",
            self.id, state
        );
    }

    fn step<B: MemBackend>(&mut self, state: State, ctx: &mut Ctx<'_, B>) -> Step {
        match state {
            State::Poll => self.poll(ctx),
            State::ScanHeaderWait => self.scan_header_wait(ctx),
            State::BodyStart => self.body_start(ctx),
            State::CopyWait => self.copy_wait(ctx),
            State::ChildProbeWait => self.child_probe_wait(ctx),
            State::ChildLock => self.child_lock(ctx),
            State::ChildHeaderWait => self.child_header_wait(ctx),
            State::ChildEvacFree => self.child_evac_free(ctx),
            State::ChildEvacStore => self.child_evac_store(ctx),
            State::ChildEvacOverflow => self.child_evac_overflow(ctx),
            State::StoreWord => self.store_word(ctx),
            State::ClaimDone => self.claim_done(ctx),
            State::Blacken => self.blacken(ctx),
            State::Drain => self.drain(ctx),
            State::Done => Step::Yield(State::Done),
        }
    }

    // --- main scanning loop entry ---------------------------------------

    fn poll<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if *ctx.done {
            return Step::Chain(State::Drain);
        }
        let scan = ctx.sb.scan();
        let free = ctx.sb.free();
        if scan < free {
            if !ctx.sb.try_acquire_scan(self.id) {
                return Step::Stall(State::Poll, StallReason::ScanLock);
            }
            // Re-read under the lock: another core may have advanced scan
            // between our unlocked comparison and the acquisition.
            let scan = ctx.sb.scan();
            if scan >= ctx.sb.free() {
                ctx.sb.release_scan(self.id);
                return Step::Stall(State::Poll, StallReason::EmptySpin);
            }
            return self.fetch_scan_header(ctx, scan);
        }
        // scan == free: the work list is empty. The SB evaluates the busy
        // bits and the scan/free comparison in the same cycle (atomic
        // termination test, paper Section IV).
        debug_assert!(!ctx.sb.is_busy(self.id));
        if ctx.sb.none_busy_except(self.id) {
            *ctx.done = true;
            ctx.sb.log_termination(self.id);
            return Step::Chain(State::Drain);
        }
        Step::Stall(State::Poll, StallReason::EmptySpin)
    }

    /// Holding the scan lock: obtain the gray frame header at `scan`, from
    /// the header FIFO when possible (zero cycles, no memory access) or
    /// from memory otherwise — the latter lengthens the scan critical
    /// section, which is the paper's `cup` pathology.
    fn fetch_scan_header<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>, scan: Addr) -> Step {
        if let Some((w0, w1)) = ctx.fifo.peek(scan) {
            return self.claim_object(ctx, scan, w0, w1, true);
        }
        ctx.fifo.count_miss();
        let issue = ctx.mem.try_issue(self.id, Port::HeaderLoad, scan);
        await_issue(issue, State::ScanHeaderWait, StallReason::HeaderLoad)
    }

    fn scan_header_wait<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !ctx.mem.load_ready(self.id, Port::HeaderLoad) {
            return Step::Stall(State::ScanHeaderWait, StallReason::HeaderLoad);
        }
        let scan = ctx.mem.consume_load(self.id, Port::HeaderLoad);
        debug_assert_eq!(scan, ctx.sb.scan());
        let w0 = ctx.heap.word(scan);
        let w1 = ctx.heap.word(scan + 1);
        self.claim_object(ctx, scan, w0, w1, false)
    }

    /// With the frame header in hand: claim work, set the busy bit and
    /// release the scan lock, all in the same cycle.
    ///
    /// Object granularity (the paper): the claim is the whole object and
    /// `scan` advances past it. Line granularity (extension 1): the claim
    /// is at most `L` body words; `scan` only advances once the object's
    /// last chunk is claimed, and the SB's chunk-offset register carries
    /// the intra-object progress between claimants.
    fn claim_object<B: MemBackend>(
        &mut self,
        ctx: &mut Ctx<'_, B>,
        frame: Addr,
        w0: u32,
        w1: u32,
        from_fifo: bool,
    ) -> Step {
        let h = Header::decode(w0, w1);
        if h.color == Color::Black {
            // An object the mutator allocated during this cycle
            // (allocate-black, concurrent extension): nothing to scan,
            // step over it.
            debug_assert_eq!(ctx.sb.scan_chunk_off(), 0);
            ctx.sb.set_scan(self.id, frame + h.size_words());
            ctx.sb.release_scan(self.id);
            return Step::Yield(State::Poll);
        }
        debug_assert_eq!(h.color, Color::Gray, "frame at {frame} not gray");
        let body = h.pi + h.delta;
        let (start, end, split) = match ctx.line_split {
            Some(line) if body > line => {
                let off = ctx.sb.scan_chunk_off();
                let end = (off + line).min(body);
                if off == 0 {
                    ctx.sb.split_begin(self.id, frame, body.div_ceil(line));
                }
                (off, end, true)
            }
            _ => (0, body, false),
        };
        let last_chunk = end == body;
        if last_chunk {
            ctx.sb.set_scan(self.id, frame + h.size_words());
            if split {
                ctx.sb.set_scan_chunk_off(self.id, 0);
            }
            if from_fifo {
                let popped = ctx.fifo.try_pop(frame);
                debug_assert!(popped.is_some());
            }
        } else {
            ctx.sb.set_scan_chunk_off(self.id, end);
        }
        ctx.counters.chunks_claimed += 1;
        self.regs = ObjRegs {
            frame,
            backlink: h.link,
            pi: h.pi,
            delta: h.delta,
            idx: start,
            end,
            split,
            ..ObjRegs::default()
        };
        ctx.sb.set_busy(self.id);
        ctx.sb.release_scan(self.id);
        // The claim itself is a micro-instruction: compare, add, register
        // writes. One clock.
        Step::Yield(State::BodyStart)
    }

    // --- body copy -------------------------------------------------------

    fn body_start<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if self.regs.idx == self.regs.end {
            return Step::Chain(State::ClaimDone);
        }
        let addr = self.regs.backlink + 2 + self.regs.idx;
        let issue = ctx.mem.try_issue(self.id, Port::BodyLoad, addr);
        // A claim's first body word is a random fromspace address that
        // `copy_wait` reads once the load retires: start the host's own
        // fetch now (the words after it are sequential).
        ctx.heap.prefetch(addr);
        await_issue(issue, State::CopyWait, StallReason::BodyLoad)
    }

    fn copy_wait<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !ctx.mem.load_ready(self.id, Port::BodyLoad) {
            return Step::Stall(State::CopyWait, StallReason::BodyLoad);
        }
        let addr = ctx.mem.consume_load(self.id, Port::BodyLoad);
        let val = ctx.heap.word(addr);
        if self.regs.idx < self.regs.pi {
            // Pointer word: translate through the child's header.
            ctx.counters.pointers_visited += 1;
            if val == NULL {
                self.regs.store_val = NULL;
                return Step::Chain(State::StoreWord);
            }
            debug_assert!(
                ctx.heap.in_fromspace(val),
                "body pointer {val} escapes fromspace"
            );
            self.regs.child = val;
            if ctx.test_before_lock {
                // Ablation C: probe the mark bit without the header lock.
                let issue = ctx.mem.try_issue(self.id, Port::HeaderLoad, val);
                ctx.heap.prefetch(val);
                return await_issue(issue, State::ChildProbeWait, StallReason::HeaderLoad);
            }
            return Step::Chain(State::ChildLock);
        }
        // Data word: copy through.
        self.regs.store_val = val;
        Step::Chain(State::StoreWord)
    }

    // --- child processing --------------------------------------------------

    fn child_probe_wait<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !ctx.mem.load_ready(self.id, Port::HeaderLoad) {
            return Step::Stall(State::ChildProbeWait, StallReason::HeaderLoad);
        }
        let child = ctx.mem.consume_load(self.id, Port::HeaderLoad);
        debug_assert_eq!(child, self.regs.child);
        let w0 = ctx.heap.word(child);
        if header::is_marked(w0) {
            // Already evacuated: the forwarding pointer is stable, no lock
            // needed — this is exactly what defuses javac's hot headers.
            self.regs.store_val = ctx.heap.word(child + 1);
            return Step::Chain(State::StoreWord);
        }
        // Unmarked at probe time: take the lock and re-read to decide.
        Step::Chain(State::ChildLock)
    }

    fn child_lock<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !ctx.sb.try_lock_header(self.id, self.regs.child) {
            return Step::Stall(State::ChildLock, StallReason::HeaderLock);
        }
        let issue = ctx
            .mem
            .try_issue(self.id, Port::HeaderLoad, self.regs.child);
        // The child header is the other random read of the microprogram:
        // `child_header_wait` wants it when the simulated load retires.
        ctx.heap.prefetch(self.regs.child);
        await_issue(issue, State::ChildHeaderWait, StallReason::HeaderLoad)
    }

    fn child_header_wait<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !ctx.mem.load_ready(self.id, Port::HeaderLoad) {
            return Step::Stall(State::ChildHeaderWait, StallReason::HeaderLoad);
        }
        let child = ctx.mem.consume_load(self.id, Port::HeaderLoad);
        debug_assert_eq!(child, self.regs.child);
        let w0 = ctx.heap.word(child);
        let w1 = ctx.heap.word(child + 1);
        if header::is_marked(w0) {
            self.regs.store_val = w1;
            ctx.sb.unlock_header(self.id);
            return Step::Chain(State::StoreWord);
        }
        self.regs.child_pi = header::pi_of(w0);
        self.regs.child_delta = header::delta_of(w0);
        Step::Chain(State::ChildEvacFree)
    }

    /// Evacuation: the free-lock critical section covers only reading and
    /// advancing `free` (one micro-op each; acquisition is free when
    /// uncontended) — which is why Table II shows near-zero free-lock
    /// stalls even for allocation-heavy benchmarks. The two header writes
    /// are issued right after release, still under the child's header
    /// lock; the comparator array orders any concurrent reader behind
    /// them.
    fn child_evac_free<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !ctx.sb.try_acquire_free(self.id) {
            return Step::Stall(State::ChildEvacFree, StallReason::FreeLock);
        }
        let dst = ctx.sb.free();
        let size = 2 + self.regs.child_pi + self.regs.child_delta;
        assert!(dst + size <= ctx.heap.to_limit(), "tospace overflow");
        ctx.sb.set_free(self.id, dst + size);
        ctx.sb.release_free(self.id);
        self.regs.child_dst = dst;
        // Functional effect of the two header writes; their *timing* is
        // modelled by the store / FIFO handling in ChildEvacStore.
        ctx.heap.set_header(
            dst,
            Header::gray(self.regs.child_pi, self.regs.child_delta, self.regs.child),
        );
        ctx.heap.set_header(
            self.regs.child,
            Header::forwarded(self.regs.child_pi, self.regs.child_delta, dst),
        );
        // Push the gray header in the same cycle as the free increment so
        // the FIFO order always equals the address order — a push delayed
        // behind a busy store buffer could otherwise be overtaken by a
        // later evacuation's push.
        let (w0, w1) =
            Header::gray(self.regs.child_pi, self.regs.child_delta, self.regs.child).encode();
        self.regs.fifo_ok = ctx.fifo.push(dst, w0, w1);
        ctx.counters.objects_copied += 1;
        ctx.counters.words_copied += size as u64;
        Step::Chain(State::ChildEvacStore)
    }

    fn child_evac_store<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        // Mark + forwarding pointer to the fromspace header.
        let issue = ctx
            .mem
            .try_issue(self.id, Port::HeaderStore, self.regs.child);
        if !issue.issued() {
            return Step::Stall(State::ChildEvacStore, StallReason::HeaderStore);
        }
        // Gray frame header: buffered on-chip at evacuation time when it
        // fit — then no memory access is needed for it at all (paper
        // Section V-D). On overflow it must be written to memory, behind
        // the store just issued.
        if self.regs.fifo_ok {
            ctx.sb.unlock_header(self.id);
            self.regs.store_val = self.regs.child_dst;
            return Step::Chain(State::StoreWord);
        }
        await_issue(issue, State::ChildEvacOverflow, StallReason::HeaderStore)
    }

    fn child_evac_overflow<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        // The header-store buffer still holds the fromspace store; the
        // gray header must wait for it — the overflow penalty.
        if !ctx
            .mem
            .try_issue(self.id, Port::HeaderStore, self.regs.child_dst)
            .issued()
        {
            return Step::Stall(State::ChildEvacOverflow, StallReason::HeaderStore);
        }
        ctx.sb.unlock_header(self.id);
        self.regs.store_val = self.regs.child_dst;
        Step::Chain(State::StoreWord)
    }

    // --- store + blacken --------------------------------------------------

    fn store_word<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        let addr = self.regs.frame + 2 + self.regs.idx;
        if !ctx.mem.try_issue(self.id, Port::BodyStore, addr).issued() {
            return Step::Stall(State::StoreWord, StallReason::BodyStore);
        }
        ctx.heap.set_word(addr, self.regs.store_val);
        self.regs.idx += 1;
        if self.regs.idx == self.regs.end {
            return Step::Chain(State::ClaimDone);
        }
        // Pipeline: initiate the next body load in the same cycle.
        let next = self.regs.backlink + 2 + self.regs.idx;
        let issue = ctx.mem.try_issue(self.id, Port::BodyLoad, next);
        await_issue(issue, State::CopyWait, StallReason::BodyLoad)
    }

    /// A claim's copy work is complete. For whole-object claims this leads
    /// straight to blackening; for split chunks, the SB's chunk counter
    /// decides whether this core was the last finisher (and blackens) or
    /// simply returns to polling.
    fn claim_done<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !self.regs.split {
            return Step::Chain(State::Blacken);
        }
        if ctx.sb.split_finish(self.regs.frame) {
            return Step::Chain(State::Blacken);
        }
        ctx.sb.clear_busy(self.id);
        Step::Yield(State::Poll)
    }

    fn blacken<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        if !ctx
            .mem
            .try_issue(self.id, Port::HeaderStore, self.regs.frame)
            .issued()
        {
            return Step::Stall(State::Blacken, StallReason::HeaderStore);
        }
        ctx.heap.set_header(
            self.regs.frame,
            Header::black(self.regs.pi, self.regs.delta),
        );
        ctx.sb.clear_busy(self.id);
        Step::Yield(State::Poll)
    }

    // --- shutdown ----------------------------------------------------------

    fn drain<B: MemBackend>(&mut self, ctx: &mut Ctx<'_, B>) -> Step {
        let idle = Port::ALL.iter().all(|&p| !ctx.mem.port_busy(self.id, p));
        if idle {
            Step::Yield(State::Done)
        } else {
            Step::Stall(State::Drain, StallReason::Drain)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_core_polls() {
        let c = CoreSm::new(3);
        assert_eq!(c.id(), 3);
        assert_eq!(c.state(), State::Poll);
        assert_eq!(c.stalls.total_stalls(), 0);
    }

    #[test]
    fn empty_worklist_single_core_terminates() {
        let mut heap = Heap::new(64);
        heap.flip();
        let mut sb = SyncBlock::new(1);
        sb.init_pointers(heap.to_base(), heap.to_base());
        let mut mem = MemorySystem::new(1, Default::default());
        let mut fifo = HeaderFifo::new(8);
        let mut done = false;
        let mut counters = WorkCounters::default();
        let mut core = CoreSm::new(0);
        let mut ctx = Ctx {
            heap: &mut heap,
            sb: &mut sb,
            mem: &mut mem,
            fifo: &mut fifo,
            done: &mut done,
            counters: &mut counters,
            test_before_lock: false,
            line_split: None,
        };
        core.tick(&mut ctx);
        assert!(done);
        assert_eq!(core.state(), State::Done);
    }

    #[test]
    fn second_core_spins_while_first_busy() {
        let mut heap = Heap::new(64);
        heap.flip();
        let mut sb = SyncBlock::new(2);
        sb.init_pointers(heap.to_base(), heap.to_base());
        sb.set_busy(0); // core 0 pretends to scan an object
        let mut mem = MemorySystem::new(2, Default::default());
        let mut fifo = HeaderFifo::new(8);
        let mut done = false;
        let mut counters = WorkCounters::default();
        let mut core1 = CoreSm::new(1);
        let mut ctx = Ctx {
            heap: &mut heap,
            sb: &mut sb,
            mem: &mut mem,
            fifo: &mut fifo,
            done: &mut done,
            counters: &mut counters,
            test_before_lock: false,
            line_split: None,
        };
        core1.tick(&mut ctx);
        assert!(!done);
        assert_eq!(core1.state(), State::Poll);
        assert_eq!(core1.stalls.empty_spin, 1);
    }
}
