//! The adaptive execution engine: count-triggered per-function tiering.
//!
//! The fixed engines trade translation cost against dispatch speed: the
//! reference interpreter ([`ExecEngine::DecodePerStep`]) pays nothing
//! up front and the most per instruction, and the direct-threaded
//! engine pays one translation per function (handler selection, block
//! summaries, superinstruction compile) for the fastest dispatch. Which
//! trade wins depends on how often a function runs — the paper's
//! Figure 5 crossover, recreated at the execution layer.
//! [`ExecEngine::Adaptive`] makes the choice per function at run time:
//!
//! ```text
//!            runs >= thread_after
//!   tier 0 ─────────────────────────▶ threaded
//!   decode-per-step                   direct-threaded
//!      ▲                                 │
//!      └─────────────────────────────────┘
//!        live-epoch bump (free / patch / eviction):
//!        demote to tier 0, drop translations + counts
//! ```
//!
//! A "run" is one entry of control into the function's live range from
//! outside it (the invocation counter of a classic tiered JIT): calls,
//! returns into a caller, and cross-function jumps all count; internal
//! loops do not. The promotion clock additionally earns one run per
//! `BACKEDGES_PER_RUN_BITS`-weighted batch of backward transfers
//! observed while single-stepping at tier 0 (the backedge counter of a
//! classic tiered JIT), so a loop-heavy function promotes inside its
//! first run instead of paying decode price for every iteration until
//! its entry count catches up. The clock only ticks at tier 0, which
//! is the only tier with somewhere left to climb. Promotion is
//! evaluated at entry (or at a backedge clock tick), against the number
//! of *completed* prior entries, and is monotone per function — a
//! function stays threaded until an epoch bump resets it.
//!
//! # Equivalence contract
//!
//! The adaptive engine composes the threaded dispatcher and falls back
//! to the same reference single-step path, so it inherits the
//! observational-equivalence contract: identical result values,
//! `cycles`, `insns`, exit status, and error at the same instruction
//! (including [`VmError::OutOfFuel`] under any fuel budget), before,
//! during, and after a promotion. `tests/exec_differential.rs` sweeps
//! fuel budgets across promotion boundaries to enforce this.
//!
//! # Invalidation
//!
//! Tier state lives in the translation cache next to the translations it
//! justified and is validated against [`CodeSpace::live_epoch`] on
//! every outer-loop iteration (hence after every host call). On any
//! epoch change — a function freed directly or by `tcc-cache` eviction,
//! or a live word patched — every function demotes to tier 0, run
//! counts reset, and stale translations are dropped; stale pcs then
//! fault [`VmError::StaleCode`] / [`VmError::BadPc`] from the exact
//! same reference path as every other engine.
//!
//! # Off-thread translation
//!
//! With `ExecEngine::Adaptive { background: true, .. }` a promotion no
//! longer builds its translation inline — the promoting run would stall
//! for exactly the latency the tiering exists to hide. Instead the
//! engine snapshots the function's sealed words and enqueues a
//! translation request (start index, the live epoch and cache
//! generation at enqueue) to a background worker thread spawned lazily
//! and owned by the translation cache. The run loop keeps executing at
//! tier 0; finished translations are drained at function-entry points
//! and loop backedges and swapped in — or **discarded** when
//! [`CodeSpace::live_epoch`] moved since enqueue (the snapshot no
//! longer describes live code) or the cache generation changed (the
//! tier state the request belonged to was rebuilt). Discarding rather
//! than installing keeps free/patch/eviction semantics and `StaleCode`
//! faulting bit-identical to the synchronous engines; the differential
//! harness sweeps the worker-backed variants too.
//!
//! [`ExecEngine::DecodePerStep`]: crate::interp::ExecEngine::DecodePerStep
//! [`ExecEngine::Adaptive`]: crate::interp::ExecEngine::Adaptive
//! [`CodeSpace::live_epoch`]: crate::code::CodeSpace::live_epoch

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::code::CODE_BASE;
use crate::cost::CostModel;
use crate::error::VmError;
use crate::host::HostCall;
use crate::interp::{ExecStats, ExitStatus, Step, Vm, RETURN_SENTINEL};
use crate::threaded::{Shape, ThreadedFn, HANDLER_TABLE_SIZE};

/// Default promotion threshold to the threaded tier: completed runs
/// after which the handler-table translation has paid for itself.
/// Calibrated by the `suite adaptive` reuse sweep.
pub const DEFAULT_THREAD_AFTER: u32 = 8;

/// Execution tier of one function under the adaptive engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Decode-per-step: no translation cost.
    Decode,
    /// Direct-threaded dispatch with basic-block fuel batching and
    /// superinstructions.
    Threaded,
}

/// Sentinel in [`TransCache::tier_idx`]: no tier record covers this
/// word yet.
pub(crate) const NO_TIER: u32 = u32::MAX;

/// Backward branches observed while single-stepping that count as one
/// extra completed run (`64`): a loop-heavy function proves its heat
/// in loop iterations long before its entry count does, and every
/// iteration spent at tier 0 costs full decode price. The weight is a
/// power of two so the hot path tests promotion with a mask, and large
/// enough that short loops (the unit-test kernels) never promote off
/// their entry schedule.
pub(crate) const BACKEDGES_PER_RUN_BITS: u32 = 6;

/// Per-VM translation cache: threaded buffers indexed by code word,
/// plus the adaptive tier state that justified them, valid for a single
/// `CodeSpace::live_epoch`.
///
/// Generic over the host because the threaded buffers store handler
/// function pointers typed over `Vm<H>`.
pub(crate) struct TransCache<H> {
    /// The `live_epoch` the cached translations were made under.
    pub(crate) epoch: u64,
    /// Word index → direct-threaded translation covering that word
    /// (shared across the function's whole range).
    pub(crate) tmap: Vec<Option<Arc<ThreadedFn<H>>>>,
    /// Word index → index into [`TransCache::tier_fns`] for the live
    /// function covering that word, or [`NO_TIER`] when untracked. A
    /// dense mirror of the live ranges so the adaptive engine resolves
    /// a function entry with one array load instead of a binary search
    /// plus hash probe per call/return transition.
    pub(crate) tier_idx: Vec<u32>,
    /// Adaptive tier state (run count, current tier) per entered
    /// function, appended on first entry. Dropped together with the
    /// translations it justifies.
    pub(crate) tier_fns: Vec<FnTier>,
    pub(crate) stats: ExecStats,
    /// Counters specific to the adaptive engine.
    pub(crate) astats: AdaptiveStats,
    /// The background translation worker, spawned lazily on the first
    /// asynchronous promotion and kept for the VM's lifetime.
    pub(crate) worker: Option<TransWorker<H>>,
    /// Subscription to a shared multi-tenant translation hub; when set,
    /// background builds go there instead of a per-VM worker.
    pub(crate) hub: Option<HubClient<H>>,
    /// Cache generation, bumped by [`TransCache::clear`]: worker
    /// responses stamped with an older generation are dropped without
    /// being installed (their tier state is gone).
    pub(crate) generation: u64,
    /// Requests enqueued to the worker whose responses have not been
    /// received yet (received responses count down even when the result
    /// is discarded).
    pub(crate) pending: u32,
    /// Superinstruction shape frequencies from threaded translations,
    /// cumulative over translations like
    /// [`ExecStats::superinstructions`]. Feeds the suite's
    /// `pair_histogram`; names are formatted only when it is read.
    pub(crate) shapes: HashMap<Shape, u64>,
}

impl<H> std::fmt::Debug for TransCache<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransCache")
            .field("epoch", &self.epoch)
            .field("tmap", &self.tmap.len())
            .field("stats", &self.stats)
            .field("generation", &self.generation)
            .field("pending", &self.pending)
            .finish()
    }
}

impl<H> TransCache<H> {
    pub(crate) fn with_epoch(epoch: u64) -> TransCache<H> {
        TransCache {
            epoch,
            tmap: Vec::new(),
            tier_idx: Vec::new(),
            tier_fns: Vec::new(),
            stats: ExecStats::default(),
            astats: AdaptiveStats::default(),
            worker: None,
            hub: None,
            generation: 0,
            pending: 0,
            shapes: HashMap::new(),
        }
    }

    /// Drops every cached translation and the adaptive tier state that
    /// justified it (counters are kept). Bumps the cache generation so
    /// in-flight background translations enqueued against the old tier
    /// state are dropped on receipt instead of installed.
    pub(crate) fn clear(&mut self) {
        self.generation += 1;
        for slot in &mut self.tmap {
            *slot = None;
        }
        for slot in &mut self.tier_idx {
            *slot = NO_TIER;
        }
        self.tier_fns.clear();
    }

    /// Adopts `epoch` if the code space moved on, dropping everything
    /// cached under the old one.
    #[inline]
    pub(crate) fn revalidate(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.clear();
            self.epoch = epoch;
            self.stats.invalidations += 1;
        }
    }

    /// Whether a threaded buffer already covers word index `idx`.
    #[inline]
    pub(crate) fn threaded_cached(&self, idx: usize) -> bool {
        matches!(self.tmap.get(idx), Some(Some(_)))
    }

    /// Maps words `start..end` to `tr` and books the translation: the
    /// one install path for inline and background builds.
    pub(crate) fn install(&mut self, start: usize, end: usize, tr: &Arc<ThreadedFn<H>>) {
        if self.tmap.len() < end {
            self.tmap.resize(end, None);
        }
        for slot in &mut self.tmap[start..end] {
            *slot = Some(Arc::clone(tr));
        }
        self.stats.translations += 1;
        self.stats.translated_words += (end - start) as u64;
        self.stats.handlers = HANDLER_TABLE_SIZE;
        self.stats.superinstructions += tr.shapes.len() as u64;
        for &shape in &tr.shapes {
            *self.shapes.entry(shape).or_insert(0) += 1;
        }
    }
}

/// Per-function adaptive state, indexed from `tier_idx` by any word of
/// the function's live range.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FnTier {
    /// Start word of the function's live range.
    pub(crate) start: usize,
    /// Entries of control into this function's range — the promotion
    /// clock. Monotone until an epoch bump drops the whole table.
    pub(crate) runs: u64,
    /// Backward branches taken inside the range while at tier 0 — the
    /// hotspot clock, weighted down by [`BACKEDGES_PER_RUN_BITS`].
    pub(crate) backedges: u64,
    /// Current tier; only ever moves up between epoch bumps.
    pub(crate) tier: Tier,
    /// Words in the function, for the translation-cost-saved estimate.
    pub(crate) words: u32,
    /// A threaded translation request is in flight on the background
    /// worker; suppresses duplicate enqueues.
    pub(crate) pending: bool,
}

impl FnTier {
    /// The promotion clock: completed entries plus loop iterations
    /// observed at tier 0, weighted so `2^BACKEDGES_PER_RUN_BITS`
    /// backedges count as one run.
    #[inline]
    fn effective_runs(&self) -> u64 {
        self.runs + (self.backedges >> BACKEDGES_PER_RUN_BITS)
    }
}

/// Counters for the adaptive engine: where runs executed, how functions
/// moved between tiers, and what translation cost was spent vs avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Function entries executed, across all tiers. Always equals
    /// `runs_tier0 + runs_tier2` (tested invariant).
    pub total_runs: u64,
    /// Function entries executed on decode-per-step (tier 0).
    pub runs_tier0: u64,
    /// Function entries executed on the direct-threaded engine (the top
    /// tier; the metric keeps its name from the three-tier ladder).
    pub runs_tier2: u64,
    /// Functions promoted to the threaded tier, cumulative. Always
    /// `>= demotions` — a function can only lose a tier it gained.
    pub promotions: u64,
    /// Threaded functions demoted by epoch bumps, cumulative.
    pub demotions: u64,
    /// Wall-clock nanoseconds spent translating promoted functions,
    /// under this engine only.
    pub translation_ns: u64,
    /// Estimated nanoseconds of translation *avoided* so far: words of
    /// run-but-never-promoted functions, priced at this session's
    /// observed translation cost per word. `0` until something has been
    /// translated (no price signal yet).
    pub translation_ns_saved: u64,
    /// Code words translated under this engine (the price signal for
    /// [`AdaptiveStats::translation_ns_saved`]).
    pub translated_words: u64,
    /// Translations built on the background worker and swapped in
    /// (`background: true` only; inline builds are not counted here).
    pub async_translations: u64,
    /// Background translations discarded on receipt because the live
    /// epoch moved between enqueue and completion — the demotion-safe
    /// path of the async pipeline.
    pub discarded_stale: u64,
    /// Total enqueue→swap-in wall-clock nanoseconds across
    /// [`AdaptiveStats::async_translations`] (queue wait + build +
    /// drain delay; the off-critical-path latency budget).
    pub swap_latency_ns: u64,
}

/// A translation request handed to the background worker: everything a
/// build needs, snapshotted at enqueue time so the worker never touches
/// VM state. Host-independent — only the response is typed over `H`.
pub(crate) struct TransRequest {
    /// Start word index of the function's live range (positions the
    /// buffer's base address).
    start: usize,
    /// Owned snapshot of the range's sealed words.
    words: Vec<u32>,
    /// The cost model in force at enqueue.
    cost: CostModel,
    /// [`crate::code::CodeSpace::live_epoch`] at enqueue; the response
    /// is discarded if the epoch moved before it was received.
    epoch: u64,
    /// Cache generation at enqueue; the response is dropped if the tier
    /// state it belongs to was rebuilt (engine/cost-model change).
    generation: u64,
    /// Enqueue timestamp, for [`AdaptiveStats::swap_latency_ns`].
    enqueued: Instant,
}

/// A finished background translation, stamped with the validity context
/// it was built under.
pub(crate) struct TransDone<H> {
    start: usize,
    end: usize,
    epoch: u64,
    generation: u64,
    /// Wall-clock build time on the worker (goes into
    /// [`AdaptiveStats::translation_ns`] when installed).
    build_ns: u64,
    enqueued: Instant,
    tr: Arc<ThreadedFn<H>>,
}

/// The background translation worker: request/response channels plus
/// the thread handle. Owned by the translation cache; dropping it
/// closes the request channel, which shuts the thread down (joined so a
/// VM drop never leaks a worker).
pub(crate) struct TransWorker<H> {
    tx: Option<mpsc::Sender<TransRequest>>,
    rx: mpsc::Receiver<TransDone<H>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl<H: HostCall> TransWorker<H> {
    /// Spawns the worker thread. Called lazily on the first background
    /// promotion, so synchronous sessions never start a thread.
    pub(crate) fn spawn() -> TransWorker<H> {
        let (req_tx, req_rx) = mpsc::channel::<TransRequest>();
        let (done_tx, done_rx) = mpsc::channel::<TransDone<H>>();
        let handle = thread::Builder::new()
            .name("tcc-translate".into())
            .spawn(move || worker_loop::<H>(&req_rx, &done_tx))
            .expect("spawn background translation worker");
        TransWorker {
            tx: Some(req_tx),
            rx: done_rx,
            handle: Some(handle),
        }
    }
}

impl<H> Drop for TransWorker<H> {
    fn drop(&mut self) {
        // Closing the request channel ends `worker_loop`'s recv loop.
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Builds the threaded translation a request asks for, over its word
/// snapshot, timing the build. The single build path shared by the
/// per-VM worker and the multi-tenant [`TransHub`].
fn build_translation<H: HostCall>(req: TransRequest) -> TransDone<H> {
    let end = req.start + req.words.len();
    let t0 = Instant::now();
    let tr = crate::threaded::translate::<H>(&req.words, req.start, &req.cost);
    TransDone {
        start: req.start,
        end,
        epoch: req.epoch,
        generation: req.generation,
        build_ns: t0.elapsed().as_nanos() as u64,
        enqueued: req.enqueued,
        tr: Arc::new(tr),
    }
}

/// The worker thread body: translate each request over its word
/// snapshot (timing the build) and send the result back. Exits when
/// either channel closes.
fn worker_loop<H: HostCall>(rx: &mpsc::Receiver<TransRequest>, tx: &mpsc::Sender<TransDone<H>>) {
    while let Ok(req) = rx.recv() {
        if tx.send(build_translation::<H>(req)).is_err() {
            return;
        }
    }
}

/// A shared background translation service: **one** `tcc-translate`
/// thread serving any number of VMs. Each request carries its own reply
/// channel, so completions route back to the requesting VM and go
/// through that VM's usual epoch/generation install checks — sharing
/// the thread changes where builds run, not what gets installed.
///
/// Cloning shares the service (`Arc` inside); the thread shuts down
/// when the last clone drops (request channel closes, thread joined).
/// A pool of worker sessions clones one hub so a single spare hardware
/// thread absorbs every session's translation load, instead of N
/// per-VM workers time-sharing it.
pub struct TransHub<H> {
    inner: Arc<HubInner<H>>,
}

impl<H> Clone for TransHub<H> {
    fn clone(&self) -> Self {
        TransHub {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<H> std::fmt::Debug for TransHub<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransHub").finish_non_exhaustive()
    }
}

struct HubInner<H> {
    tx: Mutex<Option<mpsc::Sender<HubJob<H>>>>,
    handle: Mutex<Option<thread::JoinHandle<()>>>,
}

/// One queued hub build: the request plus the requester's completion
/// channel.
struct HubJob<H> {
    req: TransRequest,
    reply: mpsc::Sender<TransDone<H>>,
}

impl<H: HostCall> TransHub<H> {
    /// Spawns the shared translation thread.
    pub fn spawn() -> TransHub<H> {
        let (tx, rx) = mpsc::channel::<HubJob<H>>();
        let handle = thread::Builder::new()
            .name("tcc-translate".into())
            .spawn(move || hub_loop::<H>(&rx))
            .expect("spawn shared translation hub");
        TransHub {
            inner: Arc::new(HubInner {
                tx: Mutex::new(Some(tx)),
                handle: Mutex::new(Some(handle)),
            }),
        }
    }

    /// Queues a build; the completion lands on `reply`. `false` when
    /// the hub thread is gone (the caller falls back or retries later;
    /// execution is correct at the current tier either way).
    pub(crate) fn submit(&self, req: TransRequest, reply: mpsc::Sender<TransDone<H>>) -> bool {
        let guard = self.inner.tx.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(tx) => tx.send(HubJob { req, reply }).is_ok(),
            None => false,
        }
    }
}

impl<H> Drop for HubInner<H> {
    fn drop(&mut self) {
        // Closing the request channel ends `hub_loop`'s recv loop.
        drop(self.tx.get_mut().unwrap_or_else(|e| e.into_inner()).take());
        if let Some(h) = self
            .handle
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
    }
}

/// The hub thread body: build each job and reply to its requester. A
/// requester that died just drops its receiver — the send fails and the
/// hub keeps serving everyone else.
fn hub_loop<H: HostCall>(rx: &mpsc::Receiver<HubJob<H>>) {
    while let Ok(job) = rx.recv() {
        let _ = job.reply.send(build_translation::<H>(job.req));
    }
}

/// A VM's subscription to a shared [`TransHub`]: the hub handle plus
/// this VM's private completion channel (the `done_tx` clone travels
/// with each request).
pub(crate) struct HubClient<H> {
    hub: TransHub<H>,
    done_tx: mpsc::Sender<TransDone<H>>,
    done_rx: mpsc::Receiver<TransDone<H>>,
}

/// Prices `cold_words` of never-translated code at the session's
/// observed translation rate, entirely in integer arithmetic:
/// `cold_words * translation_ns / translated_words`, computed in
/// `u128` so the product cannot overflow and no f64 round-trip can
/// corrupt large counters. With no price signal yet — nothing
/// translated, or a cold sample whose measured duration was zero
/// (`per_word == 0` on a coarse clock) — the estimate is `0`.
pub(crate) fn saved_estimate(cold_words: u64, translation_ns: u64, translated_words: u64) -> u64 {
    if translated_words == 0 || translation_ns == 0 {
        return 0;
    }
    let scaled = u128::from(cold_words) * u128::from(translation_ns) / u128::from(translated_words);
    u64::try_from(scaled).unwrap_or(u64::MAX)
}

/// A function the adaptive run loop is attributed to (or just left):
/// absolute bounds, its tier record, and the threaded buffer it
/// dispatches through, all memoized in the loop so steady-state
/// dispatch touches no cache at all. The fixed threaded engine pays one
/// `tmap` probe and an `Arc` clone per call/return transition; keeping
/// the two sides of the transition warm here is what lets adaptive
/// match it (`suite adaptive` gates the gap).
struct Active<H> {
    /// Absolute address bounds of the function's live range.
    lo: u64,
    hi: u64,
    /// Index into `TransCache::tier_fns`.
    fi: u32,
    /// Tier [`Active::tr`] was fetched for; refreshed on promotion.
    tier: Tier,
    /// The threaded buffer; `None` at tier 0, while a background build
    /// is in flight, and where translation was refused — all of which
    /// single-step on the reference path.
    tr: Option<Arc<ThreadedFn<H>>>,
    /// Backward transfers observed while running below the granted
    /// tier with a translation in flight (background mode only);
    /// throttles the mid-run worker poll to the hotspot clock's tick.
    poll_clock: u32,
}

impl<H> Active<H> {
    /// Whether `pc` is a word inside this function's live range.
    #[inline]
    fn contains(&self, pc: u64) -> bool {
        pc >= self.lo && pc < self.hi && pc.is_multiple_of(4)
    }

    /// Whether the memoized buffer is the one `tier` dispatches
    /// through. In background mode a function granted the threaded tier
    /// single-steps while its translation is in flight; a mismatch at
    /// function entry re-probes the cache so a finished swap is picked
    /// up.
    #[inline]
    fn tr_matches(&self) -> bool {
        self.tr.is_some() == (self.tier == Tier::Threaded)
    }
}

impl<H: HostCall> Vm<H> {
    /// The adaptive engine's run loop. Structure matches `run_threaded`
    /// — translated dispatch where the function's tier has one,
    /// reference-engine single steps otherwise — with tier selection at
    /// each function entry.
    pub(crate) fn run_adaptive(
        &mut self,
        mut pc: u64,
        thread_after: u32,
        background: bool,
    ) -> Result<ExitStatus, VmError> {
        // The attributed function and the one control most recently
        // left. Entries are counted only on range transitions, and the
        // common transition shape — a call/return ping-pong between a
        // caller and one callee — swaps the memoized pair without any
        // range resolution or translation lookup.
        let mut cur: Option<Active<H>> = None;
        let mut prev: Option<Active<H>> = None;
        loop {
            if pc == RETURN_SENTINEL {
                return Ok(ExitStatus::Returned);
            }
            let epoch = self.state.code.live_epoch();
            if epoch != self.trans.epoch {
                self.demote_all(epoch);
                cur = None;
                prev = None;
            }
            let in_cur = match cur {
                Some(ref c) => c.contains(pc),
                None => false,
            };
            if !in_cur {
                // Function entry: the swap point of the async pipeline.
                // Finished background translations are installed here,
                // before tier selection, so this entry can already
                // dispatch through them.
                if background && self.trans.pending > 0 {
                    self.poll_background();
                }
                let back = match prev {
                    Some(ref p) => p.contains(pc),
                    None => false,
                };
                if back {
                    std::mem::swap(&mut cur, &mut prev);
                    let c = cur.as_mut().expect("swapped from a hit");
                    let tier = self.count_entry(c.fi, thread_after);
                    if tier != c.tier || (background && !c.tr_matches()) {
                        c.tier = tier;
                        c.tr = self.fetch_translation(pc, c.fi, tier, background);
                    }
                } else {
                    prev = std::mem::replace(
                        &mut cur,
                        self.enter_function(pc, thread_after, background),
                    );
                }
            }
            // `cur` is a loop local, so dispatching through its memoized
            // translation borrows nothing from `self`.
            let step = if let Some(Active {
                tr: Some(ref tr), ..
            }) = cur
            {
                self.dispatch_threaded(tr, pc)?
            } else {
                let step = self.step_slow(pc)?;
                self.trans.stats.slow_insns += 1;
                // Hotspot clock: a backward transfer inside a tier-0
                // function is a loop iteration paid at full decode
                // price; enough of them promote the function mid-run,
                // without waiting for its entry count to catch up.
                if let (Some(a), &Step::At(next)) = (cur.as_mut(), &step) {
                    if next <= pc && a.contains(next) {
                        if a.tier == Tier::Decode {
                            self.note_backedge(a, next, thread_after, background);
                        } else if background && self.trans.pending > 0 {
                            // Granted the threaded tier while its
                            // translation is still in flight: poll for
                            // it mid-loop so the swap lands inside this
                            // run.
                            self.poll_midrun(a, next);
                        }
                    }
                }
                step
            };
            match step {
                Step::At(next) => pc = next,
                Step::Done(status) => return Ok(status),
            }
        }
    }

    /// Records one entry of control into the live function containing
    /// `pc`, promoting it first if its completed-run count has crossed
    /// the threshold. Returns the memoized function state, or `None`
    /// when `pc` is not inside live code (the slow path then raises the
    /// exact reference fault).
    fn enter_function(
        &mut self,
        pc: u64,
        thread_after: u32,
        background: bool,
    ) -> Option<Active<H>> {
        if pc < CODE_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - CODE_BASE) / 4) as usize;
        let fi = match self.trans.tier_idx.get(idx).copied() {
            Some(fi) if fi != NO_TIER => fi,
            _ => {
                // First entry since the last epoch bump: resolve the
                // live range once and mirror it into the dense index so
                // every later entry is a single array load.
                let (start, end) = self.state.code.live_range_containing(idx)?;
                let fi = u32::try_from(self.trans.tier_fns.len())
                    .expect("fewer than 2^32 live functions per epoch");
                self.trans.tier_fns.push(FnTier {
                    start,
                    runs: 0,
                    backedges: 0,
                    tier: Tier::Decode,
                    words: (end - start) as u32,
                    pending: false,
                });
                if self.trans.tier_idx.len() < end {
                    self.trans.tier_idx.resize(end, NO_TIER);
                }
                for slot in &mut self.trans.tier_idx[start..end] {
                    *slot = fi;
                }
                fi
            }
        };
        let tier = self.count_entry(fi, thread_after);
        let f = &self.trans.tier_fns[fi as usize];
        let lo = CODE_BASE + (f.start as u64) * 4;
        let hi = lo + u64::from(f.words) * 4;
        let tr = self.fetch_translation(pc, fi, tier, background);
        Some(Active {
            lo,
            hi,
            fi,
            tier,
            tr,
            poll_clock: 0,
        })
    }

    /// Mid-run swap point of the async pipeline: the function was
    /// granted the threaded tier but its translation is still being
    /// built, so it is single-stepping at reference speed. Backward
    /// transfers poll the worker on the same 64-iteration clock as the
    /// hotspot check and swap a finished build in mid-loop — the
    /// synchronous engine promotes mid-run at exactly this point, and
    /// without a matching swap point the pipeline would forfeit the
    /// whole remaining run to tier 0, *growing* the cold-run tail it
    /// exists to cut.
    #[inline]
    fn poll_midrun(&mut self, a: &mut Active<H>, pc: u64) {
        a.poll_clock = a.poll_clock.wrapping_add(1);
        if a.poll_clock & ((1 << BACKEDGES_PER_RUN_BITS) - 1) != 0 {
            return;
        }
        self.poll_background();
        if !a.tr_matches() {
            a.tr = self.fetch_translation(pc, a.fi, a.tier, true);
        }
    }

    /// Counts one entry of control into tier record `fi`, promoting the
    /// function first if its completed-run count has crossed the
    /// threshold. Returns the tier this entry executes at. This is the
    /// whole per-transition cost once a function is memoized.
    #[inline]
    fn count_entry(&mut self, fi: u32, thread_after: u32) -> Tier {
        let entry = &mut self.trans.tier_fns[fi as usize];
        let promote =
            entry.tier == Tier::Decode && entry.effective_runs() >= u64::from(thread_after);
        if promote {
            entry.tier = Tier::Threaded;
        }
        entry.runs += 1;
        let tier = entry.tier;
        let astats = &mut self.trans.astats;
        astats.promotions += u64::from(promote);
        astats.total_runs += 1;
        match tier {
            Tier::Decode => astats.runs_tier0 += 1,
            Tier::Threaded => astats.runs_tier2 += 1,
        }
        tier
    }

    /// Counts one backward transfer inside the tier-0 function `a` and
    /// promotes it in place once enough loop iterations have accrued
    /// (re-evaluated only when the weighted clock ticks, so the common
    /// case is one increment and one mask test).
    #[inline]
    fn note_backedge(&mut self, a: &mut Active<H>, pc: u64, thread_after: u32, background: bool) {
        let entry = &mut self.trans.tier_fns[a.fi as usize];
        entry.backedges += 1;
        if entry.backedges & ((1 << BACKEDGES_PER_RUN_BITS) - 1) != 0
            || entry.effective_runs() < u64::from(thread_after)
        {
            return;
        }
        entry.tier = Tier::Threaded;
        self.trans.astats.promotions += 1;
        a.tier = Tier::Threaded;
        a.tr = self.fetch_translation(pc, a.fi, Tier::Threaded, background);
    }

    /// The threaded buffer for `tier` at `pc` (`None` at tier 0).
    /// Synchronous mode builds (and times) it inline on first use.
    /// Background mode never builds on this thread: a cached buffer is
    /// returned directly, and a miss enqueues a request to the worker
    /// and returns `None`, so the promoting run keeps moving at tier-0
    /// speed.
    fn fetch_translation(
        &mut self,
        pc: u64,
        fi: u32,
        tier: Tier,
        background: bool,
    ) -> Option<Arc<ThreadedFn<H>>> {
        if tier == Tier::Decode {
            return None;
        }
        if !background {
            return self.threaded_at_counted(pc);
        }
        if self.trans.threaded_cached(((pc - CODE_BASE) / 4) as usize) {
            return self.threaded_at(pc);
        }
        self.enqueue_translation(fi);
        None
    }

    /// Enqueues a translation request for tier record `fi` to the
    /// background worker (spawning it on first use), snapshotting the
    /// function's sealed words plus the epoch/generation the result
    /// must still match to be installed. A request already in flight
    /// for the same function is not duplicated.
    fn enqueue_translation(&mut self, fi: u32) {
        let (start, end) = {
            let entry = &mut self.trans.tier_fns[fi as usize];
            if entry.pending {
                return;
            }
            entry.pending = true;
            (entry.start, entry.start + entry.words as usize)
        };
        let req = TransRequest {
            start,
            words: self.state.code.word_slice(start, end).to_vec(),
            cost: self.cost.clone(),
            epoch: self.trans.epoch,
            generation: self.trans.generation,
            enqueued: Instant::now(),
        };
        // A shared hub subscription routes builds to the multi-tenant
        // thread; otherwise a per-VM worker is spawned lazily.
        let sent = if let Some(client) = self.trans.hub.as_ref() {
            client.hub.submit(req, client.done_tx.clone())
        } else {
            let worker = self.trans.worker.get_or_insert_with(TransWorker::spawn);
            match worker.tx.as_ref() {
                Some(tx) => tx.send(req).is_ok(),
                None => false,
            }
        };
        if sent {
            self.trans.pending += 1;
        } else {
            // Worker unavailable (died mid-session): clear the flag so
            // a later promotion can retry; execution stays correct at
            // tier 0 either way.
            self.trans.tier_fns[fi as usize].pending = false;
        }
    }

    /// Subscribes this VM to a shared [`TransHub`]: every later
    /// background promotion is built on the hub's thread instead of a
    /// per-VM worker, and completions come back on a private channel
    /// created here. Install semantics (epoch/generation checks,
    /// discard-on-stale) are unchanged.
    pub fn set_translation_hub(&mut self, hub: TransHub<H>) {
        let (done_tx, done_rx) = mpsc::channel();
        self.trans.hub = Some(HubClient {
            hub,
            done_tx,
            done_rx,
        });
    }

    /// Drains every already-finished background translation without
    /// blocking, installing or discarding each.
    fn poll_background(&mut self) {
        while self.trans.pending > 0 {
            let done = if let Some(client) = self.trans.hub.as_ref() {
                match client.done_rx.try_recv() {
                    Ok(done) => done,
                    Err(_) => break,
                }
            } else {
                match self.trans.worker.as_ref() {
                    Some(w) => match w.rx.try_recv() {
                        Ok(done) => done,
                        Err(_) => break,
                    },
                    None => break,
                }
            };
            self.trans.pending -= 1;
            self.install_translation(done);
        }
    }

    /// Blocks until every in-flight background translation has been
    /// received (each is then installed or discarded by the usual
    /// epoch/generation checks). Test and benchmark hook: makes the
    /// asynchronous pipeline deterministic at a chosen point without
    /// changing its semantics.
    pub fn drain_background_translations(&mut self) {
        while self.trans.pending > 0 {
            let done = if let Some(client) = self.trans.hub.as_ref() {
                // This VM holds its own `done_tx`, so the channel never
                // reports disconnected — a timeout bounds the wait if
                // the hub thread is gone mid-build.
                match client.done_rx.recv_timeout(Duration::from_secs(1)) {
                    Ok(done) => done,
                    Err(_) => break,
                }
            } else {
                match self.trans.worker.as_ref() {
                    Some(w) => match w.rx.recv() {
                        Ok(done) => done,
                        Err(_) => break,
                    },
                    None => break,
                }
            };
            self.trans.pending -= 1;
            self.install_translation(done);
        }
    }

    /// Swap-or-discard: the receive side of the async pipeline. A
    /// result built against an older live epoch describes code that has
    /// since been freed or patched and is discarded (the demotion-safe
    /// path); one from an older cache generation belongs to tier state
    /// that no longer exists and is dropped silently. Everything else
    /// is installed exactly as an inline build would have been.
    fn install_translation(&mut self, done: TransDone<H>) {
        if done.epoch != self.state.code.live_epoch() {
            self.trans.astats.discarded_stale += 1;
            return;
        }
        if done.generation != self.trans.generation {
            return;
        }
        // Same generation ⇒ the tier record that requested this is
        // still alive; clear its in-flight flag.
        if let Some(&fi) = self.trans.tier_idx.get(done.start) {
            if fi != NO_TIER {
                self.trans.tier_fns[fi as usize].pending = false;
            }
        }
        self.trans.install(done.start, done.end, &done.tr);
        let astats = &mut self.trans.astats;
        astats.translation_ns += done.build_ns;
        astats.translated_words += (done.end - done.start) as u64;
        astats.async_translations += 1;
        astats.swap_latency_ns += done.enqueued.elapsed().as_nanos() as u64;
    }

    /// Epoch bump observed: count the threaded functions lost, drop
    /// every translation and all tier state, and adopt the new epoch.
    /// The next entry of any function starts over at tier 0 with a zero
    /// run count.
    fn demote_all(&mut self, epoch: u64) {
        let lost = self
            .trans
            .tier_fns
            .iter()
            .filter(|t| t.tier == Tier::Threaded)
            .count();
        self.trans.astats.demotions += lost as u64;
        self.trans.revalidate(epoch);
    }

    /// `threaded_at`, with the build (cache-miss) path timed into
    /// [`AdaptiveStats::translation_ns`].
    fn threaded_at_counted(&mut self, pc: u64) -> Option<Arc<ThreadedFn<H>>> {
        if self.trans.threaded_cached(((pc - CODE_BASE) / 4) as usize) {
            return self.threaded_at(pc);
        }
        let words_before = self.trans.stats.translated_words;
        let t0 = Instant::now();
        let tr = self.threaded_at(pc);
        let built = self.trans.stats.translated_words - words_before;
        if built > 0 {
            self.trans.astats.translation_ns += t0.elapsed().as_nanos() as u64;
            self.trans.astats.translated_words += built;
        }
        tr
    }

    /// Adaptive-engine counters, with the translation-cost-saved
    /// estimate priced at this session's observed ns/word.
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        let mut s = self.trans.astats;
        let cold_words: u64 = self
            .trans
            .tier_fns
            .iter()
            .filter(|t| t.tier == Tier::Decode && t.runs > 0)
            .map(|t| u64::from(t.words))
            .sum();
        s.translation_ns_saved = saved_estimate(cold_words, s.translation_ns, s.translated_words);
        s
    }

    /// The adaptive tier and run count of the live function containing
    /// `addr`: `None` when `addr` is not inside live code or the
    /// function has not been entered since the last epoch bump.
    /// Diagnostic surface for tests and tooling.
    pub fn adaptive_tier(&self, addr: u64) -> Option<(Tier, u64)> {
        if addr < CODE_BASE || !addr.is_multiple_of(4) {
            return None;
        }
        // A pending (not-yet-observed) epoch bump means every record is
        // due for demotion: report untracked rather than stale state.
        if self.state.code.live_epoch() != self.trans.epoch {
            return None;
        }
        let idx = ((addr - CODE_BASE) / 4) as usize;
        let fi = self.trans.tier_idx.get(idx).copied()?;
        if fi == NO_TIER {
            return None;
        }
        let t = &self.trans.tier_fns[fi as usize];
        Some((t.tier, t.runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeSpace;
    use crate::interp::ExecEngine;
    use crate::isa::{Insn, Op};
    use crate::regs::{A0, AT0, ZERO};

    /// sum(1..=n) by counted loop.
    fn loop_code() -> (CodeSpace, u64, crate::code::FuncHandle) {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("sum");
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
        cs.push(Insn::i(Op::Beq, A0, ZERO, 3));
        cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
        cs.push(Insn::i(Op::Addiw, A0, A0, -1));
        cs.push(Insn::j(Op::J, -4));
        cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        (cs, addr, f)
    }

    fn adaptive_vm(thread_after: u32) -> (Vm<crate::host::NoHost>, u64, crate::code::FuncHandle) {
        let (cs, addr, f) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Adaptive {
            thread_after,
            background: false,
        });
        (vm, addr, f)
    }

    fn adaptive_vm_bg(
        thread_after: u32,
    ) -> (Vm<crate::host::NoHost>, u64, crate::code::FuncHandle) {
        let (cs, addr, f) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Adaptive {
            thread_after,
            background: true,
        });
        (vm, addr, f)
    }

    #[test]
    fn functions_climb_tiers_at_the_configured_thresholds() {
        let (mut vm, addr, _) = adaptive_vm(4);
        let expect = [
            Tier::Decode,   // run 1: 0 completed runs
            Tier::Decode,   // run 2: 1 completed
            Tier::Decode,   // run 3
            Tier::Decode,   // run 4
            Tier::Threaded, // run 5: 4 completed >= thread_after
            Tier::Threaded, // run 6
        ];
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(vm.call(addr, &[5]).unwrap(), 15, "run {}", i + 1);
            let (tier, runs) = vm.adaptive_tier(addr).expect("tracked");
            assert_eq!(tier, *want, "run {}", i + 1);
            assert_eq!(runs, i as u64 + 1);
        }
        let s = vm.adaptive_stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 0);
        assert_eq!((s.runs_tier0, s.runs_tier2), (4, 2));
        assert_eq!(s.total_runs, 6);
        assert!(s.translation_ns > 0, "promoted tiers were translated");
    }

    #[test]
    fn all_tiers_agree_with_reference_results() {
        for n in [0u64, 1, 10, 100] {
            let (mut vm, addr, _) = adaptive_vm(2);
            let want: u64 = (1..=n).sum();
            for run in 0..5 {
                assert_eq!(vm.call(addr, &[n]).unwrap(), want, "n={n} run={run}");
            }
        }
    }

    #[test]
    fn hot_loop_promotes_mid_run_off_the_backedge_clock() {
        // One entry, but hundreds of loop iterations: the backedge
        // clock (64 iterations ≈ one run) must lift the function out of
        // tier 0 during its first run, while the entry count is still 1.
        let (mut vm, addr, _) = adaptive_vm(2);
        assert_eq!(vm.call(addr, &[300]).unwrap(), (1..=300).sum::<u64>());
        let (tier, runs) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(runs, 1, "backedges are not entries");
        assert_eq!(tier, Tier::Threaded, "promoted inside the first run");
        let s = vm.adaptive_stats();
        assert_eq!(s.total_runs, 1);
        assert_eq!(s.promotions, 1, "promoted once, mid-run");
        assert_eq!(s.runs_tier0, 1, "the entry itself was counted at tier 0");
        assert!(
            vm.exec_stats().fast_insns > 0,
            "the rest of the loop ran threaded"
        );
        // A short-loop function stays on its entry schedule.
        let (mut vm, addr, _) = adaptive_vm(2);
        assert_eq!(vm.call(addr, &[10]).unwrap(), 55);
        assert_eq!(vm.adaptive_tier(addr).unwrap().0, Tier::Decode);
    }

    #[test]
    fn long_loop_entered_once_finishes_threaded_like_the_reference() {
        // Entered once under the default threshold, the loop runs well
        // past `DEFAULT_THREAD_AFTER << BACKEDGES_PER_RUN_BITS`
        // backedges: the function must end its only run threaded, with
        // observables identical to decode-per-step.
        let n = 4 * (u64::from(DEFAULT_THREAD_AFTER) << BACKEDGES_PER_RUN_BITS);
        let (cs, addr, _) = loop_code();
        let mut reference = Vm::new(cs.clone(), 1 << 20);
        reference.set_engine(ExecEngine::DecodePerStep);
        let want = (
            reference.call(addr, &[n]),
            reference.cycles(),
            reference.insns(),
        );
        assert_eq!(want.0, Ok((1..=n).sum::<u64>() as u32 as u64));
        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.engine(), ExecEngine::default());
        let got = (vm.call(addr, &[n]), vm.cycles(), vm.insns());
        assert_eq!(got, want);
        let (tier, runs) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!((tier, runs), (Tier::Threaded, 1));
        let s = vm.exec_stats();
        assert!(
            s.fast_insns > s.slow_insns,
            "most of the loop ran threaded: {s:?}"
        );
    }

    #[test]
    fn epoch_bump_demotes_and_resets_run_counts() {
        let (mut vm, addr, _) = adaptive_vm(2);
        for _ in 0..4 {
            vm.call(addr, &[3]).unwrap();
        }
        assert_eq!(vm.adaptive_tier(addr).unwrap().0, Tier::Threaded);
        // A live patch bumps the epoch without freeing anything.
        vm.state_mut().code.patch(
            ((addr - crate::code::CODE_BASE) / 4) as usize,
            Insn::i(Op::Addiw, AT0, ZERO, 0),
        );
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, runs) = vm.adaptive_tier(addr).unwrap();
        assert_eq!(tier, Tier::Decode, "demoted to tier 0");
        assert_eq!(runs, 1, "run count restarted");
        let s = vm.adaptive_stats();
        assert_eq!(s.demotions, 1, "the threaded function was demoted");
        assert!(s.promotions >= s.demotions);
    }

    #[test]
    fn freed_hot_function_faults_stale_at_every_tier() {
        for warm_runs in [0u64, 1, 3, 8] {
            let (mut vm, addr, f) = adaptive_vm(2);
            for _ in 0..warm_runs {
                vm.call(addr, &[2]).unwrap();
            }
            vm.state_mut().code.free_function(f).unwrap();
            assert_eq!(
                vm.call(addr, &[2]),
                Err(crate::error::VmError::StaleCode(addr)),
                "after {warm_runs} warm runs"
            );
            assert!(vm.adaptive_tier(addr).is_none(), "no live range remains");
        }
    }

    #[test]
    fn cold_functions_report_translation_saved_once_priced() {
        let (mut cs, hot, _) = loop_code();
        let g = cs.begin_function("once");
        cs.push(Insn::i(Op::Addiw, A0, A0, 7));
        cs.push(Insn::ret());
        let cold = cs.finish_function(g).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Adaptive {
            thread_after: 2,
            background: false,
        });
        vm.call(cold, &[1]).unwrap();
        assert_eq!(vm.adaptive_stats().translation_ns_saved, 0, "no price yet");
        for _ in 0..4 {
            vm.call(hot, &[4]).unwrap();
        }
        let s = vm.adaptive_stats();
        assert!(s.translation_ns > 0);
        assert!(
            s.translation_ns_saved > 0,
            "run-once function's avoided translation is priced: {s:?}"
        );
    }

    #[test]
    fn saved_estimate_is_exact_integer_arithmetic() {
        // 1000 ns over 4 words prices 10 cold words at 2500 ns.
        assert_eq!(saved_estimate(10, 1000, 4), 2500);
        // Sub-ns-per-word rates keep precision the f64 round-trip lost:
        // 3 ns over 4 words prices 10 cold words at 30/4 = 7 ns.
        assert_eq!(saved_estimate(10, 3, 4), 7);
        // No price signal: nothing translated, or a zero-duration cold
        // sample on a coarse clock.
        assert_eq!(saved_estimate(10, 0, 4), 0);
        assert_eq!(saved_estimate(10, 1000, 0), 0);
        assert_eq!(saved_estimate(0, 1000, 4), 0);
        // Counters too large for f64's 53-bit mantissa stay exact.
        let big = (1u64 << 60) + 1;
        assert_eq!(saved_estimate(big, 7, 7), big);
        // The u128 product cannot overflow; a result past u64 saturates.
        assert_eq!(saved_estimate(u64::MAX, u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn background_promotion_matches_reference_results() {
        let (mut vm, addr, _) = adaptive_vm_bg(2);
        for run in 0..8 {
            assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "run {run}");
        }
        vm.drain_background_translations();
        assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "post-drain run");
        let s = vm.adaptive_stats();
        assert!(
            s.async_translations >= 1,
            "worker-built translations were swapped in: {s:?}"
        );
        assert_eq!(s.discarded_stale, 0);
        assert!(s.swap_latency_ns > 0, "swap latency was accounted");
        assert!(
            s.translation_ns > 0,
            "worker build time lands in translation_ns"
        );
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Threaded, "climbed to the top tier");
    }

    #[test]
    fn epoch_bump_between_enqueue_and_completion_discards_translation() {
        use crate::isa::{Insn, Op};
        let (mut vm, addr, _) = adaptive_vm_bg(1);
        // Two entries: the second crosses `thread_after` and enqueues a
        // threaded build on the worker.
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Threaded, "promotion granted at entry 2");
        // The epoch bump lands between enqueue and receipt: patch a
        // live word (same instruction, so results are unchanged) before
        // draining the worker.
        vm.state_mut().code.patch(
            ((addr - crate::code::CODE_BASE) / 4) as usize,
            Insn::i(Op::Addiw, AT0, ZERO, 0),
        );
        vm.drain_background_translations();
        let s = vm.adaptive_stats();
        assert_eq!(
            s.discarded_stale, 1,
            "the stale translation was discarded, not installed: {s:?}"
        );
        assert_eq!(s.async_translations, 0, "nothing was swapped in");
        assert_eq!(vm.exec_stats().translations, 0, "no buffer was installed");
        // The function re-promotes cleanly from tier 0: the next run
        // observes the bump and demotes, then the climb restarts.
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, runs) = vm.adaptive_tier(addr).expect("re-tracked");
        assert_eq!((tier, runs), (Tier::Decode, 1), "restarted at tier 0");
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        vm.drain_background_translations();
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Threaded, "re-promoted after the bump");
        let s = vm.adaptive_stats();
        assert_eq!(s.async_translations, 1, "the re-built translation landed");
        assert_eq!(s.discarded_stale, 1);
    }

    #[test]
    fn shared_hub_serves_multiple_vms_without_local_workers() {
        let hub = TransHub::spawn();
        let mut vms = Vec::new();
        for _ in 0..2 {
            let (mut vm, addr, _) = adaptive_vm_bg(2);
            vm.set_translation_hub(hub.clone());
            vms.push((vm, addr));
        }
        for (vm, addr) in &mut vms {
            for run in 0..6 {
                assert_eq!(vm.call(*addr, &[10]).unwrap(), 55, "run {run}");
            }
            vm.drain_background_translations();
            assert_eq!(vm.call(*addr, &[10]).unwrap(), 55, "post-drain run");
            let s = vm.adaptive_stats();
            assert!(
                s.async_translations >= 1,
                "hub-built translations landed: {s:?}"
            );
            assert!(vm.trans.worker.is_none(), "no per-VM worker was spawned");
            let (tier, _) = vm.adaptive_tier(*addr).expect("tracked");
            assert_eq!(tier, Tier::Threaded, "climbed to the top tier");
        }
        // Dropping VMs before the hub, then the hub itself, must not
        // hang or panic (requests possibly still queued).
        drop(vms);
        drop(hub);
    }

    #[test]
    fn hub_is_shareable_across_threads() {
        let hub = TransHub::<crate::host::NoHost>::spawn();
        let mut handles = Vec::new();
        for t in 0..2 {
            let hub = hub.clone();
            handles.push(thread::spawn(move || {
                let (mut vm, addr, _) = adaptive_vm_bg(2);
                vm.set_translation_hub(hub);
                for run in 0..6 {
                    assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "t{t} run {run}");
                }
                vm.drain_background_translations();
                assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "t{t} post-drain");
                vm.adaptive_stats().async_translations
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total >= 2, "each thread's builds came back: {total}");
    }

    #[test]
    fn background_worker_shuts_down_on_drop() {
        let (mut vm, addr, _) = adaptive_vm_bg(2);
        for _ in 0..4 {
            vm.call(addr, &[5]).unwrap();
        }
        // Dropping the VM drops the cache, closes the request channel,
        // and joins the worker — this must not hang or panic even with
        // requests possibly still in flight.
        drop(vm);
    }
}
