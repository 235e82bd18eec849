//! Message passing between ranks — the MPI substitute.
//!
//! Each rank is a thread; messages travel over `std::sync::mpsc` channels.
//! The API mirrors the subset of MPI the paper's runtime uses: tagged
//! non-blocking sends, tag-matched receives, barrier, and all-reduce.
//! Communication statistics (messages, bytes) are recorded per rank, because
//! the cluster simulator consumes them to model network time at scale.
//!
//! On top of the raw channels sits a small reliability layer, which exists
//! so the fault-injection harness ([`FaultPlan`]) has something real to
//! test against:
//!
//! * every payload message carries a per-sender sequence number; receivers
//!   deduplicate on `(from, seq)`, so duplicated deliveries are harmless;
//! * senders in a world with a fault plan keep recently sent messages in a
//!   bounded outbox keyed by `(to, tag)` — tags are unique per run (they
//!   embed the step epoch), so the key is unambiguous; without a plan the
//!   channels lose nothing and no copy is kept;
//! * a receiver that waits too long for a tag sends a retransmit request to
//!   the expected sender; the sender services such requests from its outbox
//!   whenever it is itself blocked in `recv`. Retransmitted copies bypass
//!   fault injection, which guarantees progress under any drop rate < 1;
//! * if the expected sender's endpoint is gone (its `Comm` was dropped —
//!   the simulated rank death), sends to it fail immediately and the
//!   survivor panics with [`DEAD_RANK_MARKER`] in the message. The
//!   distributed driver catches that unwind and restarts the cohort from
//!   the last complete checkpoint.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Once};
use std::time::Duration;

/// Panic-message marker for "a peer rank is unreachable". The resilient
/// distributed driver looks for this to distinguish simulated rank death
/// from genuine bugs.
pub const DEAD_RANK_MARKER: &str = "pf-grid: peer rank presumed dead";

/// How long one tag-matched receive waits before requesting a retransmit.
const RETRY_TIMEOUT: Duration = Duration::from_millis(10);
/// Receive attempts before declaring the peer dead (total ≈ 3 s at one
/// rank per host core). See [`recv_attempt_limit`].
const MAX_RECV_ATTEMPTS: u32 = 300;
/// Quiet windows granted after a probe push found the peer's endpoint
/// gone. A *cleanly finished* peer pushed everything we are owed before
/// exiting (channel pushes are synchronous), so anything we will ever get
/// from it is already local and a handful of drain passes finds it; only
/// a genuinely dead peer leaves the queue dry past this grace. Kept short
/// deliberately — it bounds how fast a kill cascades across the world,
/// one neighbour hop per grace period.
const GRACE_RECV_ATTEMPTS: u32 = 25;

/// Quiet receive windows a rank tolerates before declaring a peer dead.
///
/// Worlds larger than the host's core count time-share their rank
/// threads, so each rank gets proportionally fewer scheduling quanta per
/// wall-clock second — at 128 simulated ranks on a single core, a healthy
/// peer can legitimately stay silent for far longer than the 3 s budget
/// that is right for an unoversubscribed world. The budget therefore
/// scales with the oversubscription factor `ceil(size / host_threads)`.
/// This does NOT slow down detection of genuinely dead ranks: a dead
/// rank's channel endpoint closes when its thread unwinds, and the next
/// `push` to it fails immediately, independent of this budget.
fn recv_attempt_limit(size: usize) -> u32 {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let oversub = size.div_ceil(threads).clamp(1, 4096) as u32;
    MAX_RECV_ATTEMPTS.saturating_mul(oversub)
}
/// Bounded retransmit-outbox size per rank (entries, not bytes).
const OUTBOX_CAP: usize = 1024;

/// One tagged message.
struct Msg {
    from: usize,
    tag: u64,
    /// Per-sender sequence number (payloads only) — the dedup key.
    seq: u64,
    /// `true`: this is a retransmit *request* for `tag`, not a payload.
    ctrl: bool,
    data: Vec<f64>,
}

/// What the fault injector decides to do with one send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultAction {
    Deliver,
    Drop,
    Duplicate,
    Delay,
}

/// Where in the run a rank is killed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kill {
    pub rank: usize,
    pub step: u64,
}

/// Deterministic, seeded fault-injection plan for a world.
///
/// Message faults are decided by hashing `(seed, from, to, tag)` — not by
/// drawing from a stream — so the outcome is identical regardless of thread
/// scheduling, and identical again on a re-run after recovery. Probabilities
/// are independent: a message rolls against drop, then duplicate, then
/// delay. Retransmitted copies and control traffic are never faulted.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub drop_prob: f64,
    pub dup_prob: f64,
    pub delay_prob: f64,
    /// Planned rank deaths, possibly several (distinct ranks at distinct
    /// steps). Kills at the earliest armed step fire first; the resilient
    /// driver disarms them one wave at a time as it restarts.
    pub kills: Vec<Kill>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    pub fn drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    pub fn dup_prob(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    pub fn delay_prob(mut self, p: f64) -> Self {
        self.delay_prob = p;
        self
    }

    /// Plan a rank death. May be called repeatedly to schedule several
    /// kills (each at its own step); every planned death costs one restart
    /// of the resilient driver, which allows up to three.
    pub fn kill_rank_at_step(mut self, rank: usize, step: u64) -> Self {
        self.kills.push(Kill { rank, step });
        self
    }

    /// The same plan with the earliest armed kill wave removed — used when
    /// restarting a cohort after that death already happened. Later kills
    /// stay armed, so a multi-kill plan replays its deaths one restart at
    /// a time (execution is deterministic, so the earliest armed kill is
    /// always the one that just fired).
    pub fn disarmed(&self) -> Self {
        let mut p = self.clone();
        if let Some(first) = p.kills.iter().map(|k| k.step).min() {
            p.kills.retain(|k| k.step != first);
        }
        p
    }

    /// Should `rank` die before executing `step`?
    pub fn should_kill(&self, rank: usize, step: u64) -> bool {
        self.kills.iter().any(|k| k.rank == rank && k.step == step)
    }

    fn roll(&self, from: usize, to: usize, tag: u64) -> FaultAction {
        if self.drop_prob <= 0.0 && self.dup_prob <= 0.0 && self.delay_prob <= 0.0 {
            return FaultAction::Deliver;
        }
        let mut h = self.seed ^ 0x6A09_E667_F3BC_C908;
        for word in [from as u64, to as u64, tag] {
            h ^= word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
        }
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.drop_prob {
            FaultAction::Drop
        } else if u < self.drop_prob + self.dup_prob {
            FaultAction::Duplicate
        } else if u < self.drop_prob + self.dup_prob + self.delay_prob {
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }
}

/// Per-rank communication statistics.
#[derive(Default, Debug)]
pub struct CommStats {
    pub messages_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    /// Messages the fault injector dropped, duplicated, or delayed.
    pub faults_injected: AtomicU64,
    /// Retransmissions served from the outbox.
    pub retransmits: AtomicU64,
}

/// Rank-tagged pf-trace handles, interned once per endpoint so the
/// per-message path is a single atomic add (or a no-op branch when
/// tracing is disabled).
struct TraceProbes {
    msgs_sent: pf_trace::Counter,
    bytes_sent: pf_trace::Counter,
    msgs_recv: pf_trace::Counter,
    /// Nanoseconds spent blocked inside `recv` — the halo-exchange
    /// latency as seen by this rank.
    recv_wait_ns: pf_trace::Counter,
    retransmits: pf_trace::Counter,
    dedup_dropped: pf_trace::Counter,
    faults_injected: pf_trace::Counter,
    /// Coalesced messages actually sent by the batched halo exchange.
    batch_messages: pf_trace::Counter,
    /// Payload bytes carried by coalesced messages.
    batch_bytes: pf_trace::Counter,
    /// Messages the coalescing avoided (fields folded into an existing
    /// message instead of travelling alone).
    batch_saved: pf_trace::Counter,
}

impl TraceProbes {
    fn for_rank(rank: usize) -> TraceProbes {
        TraceProbes {
            msgs_sent: pf_trace::counter_at("comm.msgs_sent", rank),
            bytes_sent: pf_trace::counter_at("comm.bytes_sent", rank),
            msgs_recv: pf_trace::counter_at("comm.msgs_recv", rank),
            recv_wait_ns: pf_trace::counter_at("comm.recv_wait_ns", rank),
            retransmits: pf_trace::counter_at("comm.retransmits", rank),
            dedup_dropped: pf_trace::counter_at("comm.dedup_dropped", rank),
            faults_injected: pf_trace::counter_at("comm.faults_injected", rank),
            batch_messages: pf_trace::counter_at("comm.batch.messages", rank),
            batch_bytes: pf_trace::counter_at("comm.batch.bytes", rank),
            batch_saved: pf_trace::counter_at("comm.batch.saved_messages", rank),
        }
    }
}

/// Accumulates the time from construction to drop into a counter (used to
/// attribute blocked-receive time across every exit path of `recv`). Owns
/// a cloned handle so no borrow of the endpoint is held across the loop.
struct WaitTimer {
    counter: pf_trace::Counter,
    start: Option<std::time::Instant>,
}

impl WaitTimer {
    fn start(counter: &pf_trace::Counter) -> WaitTimer {
        WaitTimer {
            counter: counter.clone(),
            start: pf_trace::enabled().then(std::time::Instant::now),
        }
    }
}

impl Drop for WaitTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.counter
                .incr(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// A rank's endpoint.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Out-of-order receive buffer for tag matching.
    pending: HashMap<(usize, u64), Vec<Vec<f64>>>,
    /// Sequence numbers already accepted, per sender — the dedup filter.
    seen: HashSet<(usize, u64)>,
    /// Next sequence number for payloads this rank sends.
    next_seq: u64,
    /// Recently sent payloads, kept for retransmission. Keyed `(to, tag)`;
    /// insertion order tracked for bounded eviction.
    outbox: HashMap<(usize, u64), (u64, Vec<f64>)>,
    outbox_order: VecDeque<(usize, u64)>,
    /// Messages the fault injector is holding back; flushed one send later.
    delayed: Vec<(usize, Msg)>,
    faults: Option<Arc<FaultPlan>>,
    /// Quiet-window budget for `recv`, oversubscription-scaled at world
    /// creation (see [`recv_attempt_limit`]).
    recv_attempts: u32,
    pub stats: Arc<CommStats>,
    trace: TraceProbes,
}

impl Comm {
    /// Create all endpoints of a `size`-rank world.
    pub fn world(size: usize) -> Vec<Comm> {
        Comm::world_with_faults(size, None)
    }

    /// Create a world whose message traffic is perturbed by `plan`.
    pub fn world_with_faults(size: usize, plan: Option<Arc<FaultPlan>>) -> Vec<Comm> {
        let channels: Vec<(Sender<Msg>, Receiver<Msg>)> = (0..size).map(|_| channel()).collect();
        let senders: Vec<Sender<Msg>> = channels.iter().map(|(s, _)| s.clone()).collect();
        channels
            .into_iter()
            .enumerate()
            .map(|(rank, (_, receiver))| Comm {
                rank,
                size,
                senders: senders.clone(),
                receiver,
                pending: HashMap::new(),
                seen: HashSet::new(),
                next_seq: 0,
                outbox: HashMap::new(),
                outbox_order: VecDeque::new(),
                delayed: Vec::new(),
                faults: plan.clone(),
                recv_attempts: recv_attempt_limit(size),
                stats: Arc::new(CommStats::default()),
                trace: TraceProbes::for_rank(rank),
            })
            .collect()
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// The fault plan this world was created with, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Raw channel push. `Err` means the peer's endpoint is gone.
    fn push(&self, to: usize, msg: Msg) -> Result<(), ()> {
        self.senders[to].send(msg).map_err(|_| ())
    }

    fn push_or_die(&self, to: usize, msg: Msg) {
        if self.push(to, msg).is_err() {
            panic!(
                "{DEAD_RANK_MARKER}: rank {} cannot reach rank {to}",
                self.rank
            );
        }
    }

    fn flush_delayed(&mut self) {
        // A fault-delayed message is a redundant late copy; a peer whose
        // endpoint is already gone either finished (and no longer wants
        // it) or died (which its neighbours detect on primary traffic).
        for (to, msg) in std::mem::take(&mut self.delayed) {
            let _ = self.push(to, msg);
        }
    }

    /// Whether a panic unwinding through this world is the simulated
    /// rank-death signal rather than a genuine bug.
    pub fn is_dead_rank_panic(payload: &(dyn std::any::Any + Send)) -> bool {
        payload
            .downcast_ref::<String>()
            .map(|s| s.contains(DEAD_RANK_MARKER))
            .or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.contains(DEAD_RANK_MARKER))
            })
            .unwrap_or(false)
    }

    /// Keep a copy of a sent payload for retransmission — in a world with a
    /// fault plan only: without one the channels are lossless, so a receiver
    /// that times out is waiting for a late sender, not for a lost message.
    fn remember(&mut self, to: usize, tag: u64, seq: u64, data: &[f64]) {
        if self.faults.is_none() {
            return;
        }
        if self
            .outbox
            .insert((to, tag), (seq, data.to_vec()))
            .is_none()
        {
            self.outbox_order.push_back((to, tag));
        }
        while self.outbox_order.len() > OUTBOX_CAP {
            if let Some(old) = self.outbox_order.pop_front() {
                self.outbox.remove(&old);
            }
        }
    }

    /// Non-blocking tagged send (the `MPI_Isend` analogue — channel sends
    /// never block). Subject to fault injection, in which case the payload
    /// is retained in the outbox so a dropped copy can be retransmitted on
    /// request.
    pub fn send(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        self.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add((data.len() * 8) as u64, Ordering::Relaxed);
        self.trace.msgs_sent.incr(1);
        self.trace.bytes_sent.incr((data.len() * 8) as u64);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.remember(to, tag, seq, &data);
        let action = match &self.faults {
            Some(plan) => plan.roll(self.rank, to, tag),
            None => FaultAction::Deliver,
        };
        if action != FaultAction::Deliver {
            self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
            self.trace.faults_injected.incr(1);
        }
        // Earlier delayed messages go out *after* this one — that inversion
        // is what makes a delay an observable reordering.
        let held = std::mem::take(&mut self.delayed);
        let msg = Msg {
            from: self.rank,
            tag,
            seq,
            ctrl: false,
            data,
        };
        match action {
            FaultAction::Drop => {} // the receiver will ask again
            FaultAction::Deliver => self.push_or_die(to, msg),
            FaultAction::Duplicate => {
                let copy = Msg {
                    from: msg.from,
                    tag: msg.tag,
                    seq: msg.seq,
                    ctrl: false,
                    data: msg.data.clone(),
                };
                self.push_or_die(to, msg);
                self.push_or_die(to, copy);
            }
            FaultAction::Delay => self.delayed.push((to, msg)),
        }
        // Same rationale as `flush_delayed`: late copies to a gone peer
        // are dropped, not fatal.
        for (to, m) in held {
            let _ = self.push(to, m);
        }
    }

    /// [`Comm::send`] for a message that coalesces `coalesced` per-field
    /// face buffers into one payload (the neighbour-batched halo
    /// exchange). Identical wire behaviour — same reliability layer, same
    /// fault injection — plus the `comm.batch.*` accounting: one batched
    /// message saves `coalesced - 1` sends over the unbatched protocol.
    pub fn send_batched(&mut self, to: usize, tag: u64, data: Vec<f64>, coalesced: usize) {
        self.trace.batch_messages.incr(1);
        self.trace.batch_bytes.incr((data.len() * 8) as u64);
        self.trace
            .batch_saved
            .incr(coalesced.saturating_sub(1) as u64);
        self.send(to, tag, data);
    }

    /// Fault-immune tagged send: same bookkeeping as [`Comm::send`], never
    /// perturbed by the fault plan. Used for shutdown collectives.
    fn send_immune(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        self.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add((data.len() * 8) as u64, Ordering::Relaxed);
        self.trace.msgs_sent.incr(1);
        self.trace.bytes_sent.incr((data.len() * 8) as u64);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.remember(to, tag, seq, &data);
        self.flush_delayed();
        self.push_or_die(
            to,
            Msg {
                from: self.rank,
                tag,
                seq,
                ctrl: false,
                data,
            },
        );
    }

    /// Service a retransmit request for `(requester, tag)` from the outbox.
    /// A request for a message not sent yet is ignored — the requester will
    /// time out and ask again after we actually send it — and so is every
    /// request in a world without a fault plan, whose outbox stays empty:
    /// there the request is only the receiver's dead-peer probe. A requester
    /// whose endpoint is gone by the time we serve is also ignored: it
    /// either received the original and finished, or it died — neither is
    /// *our* failure, and treating it as one is what turns a single slow
    /// rank into a world-wide cascade on oversubscribed hosts.
    fn serve_retransmit(&mut self, requester: usize, tag: u64) {
        if let Some((seq, data)) = self.outbox.get(&(requester, tag)) {
            self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
            self.trace.retransmits.incr(1);
            let msg = Msg {
                from: self.rank,
                tag,
                seq: *seq,
                ctrl: false,
                data: data.clone(),
            };
            let _ = self.push(requester, msg);
        }
    }

    /// Process one inbound message. Returns the payload if it matches the
    /// `(from, tag)` the caller is blocked on.
    fn accept(&mut self, m: Msg, from: usize, tag: u64) -> Option<Vec<f64>> {
        if m.ctrl {
            self.serve_retransmit(m.from, m.tag);
            return None;
        }
        if !self.seen.insert((m.from, m.seq)) {
            self.trace.dedup_dropped.incr(1);
            return None; // duplicate delivery
        }
        if m.from == from && m.tag == tag {
            return Some(m.data);
        }
        self.pending
            .entry((m.from, m.tag))
            .or_default()
            .push(m.data);
        None
    }

    /// Blocking tag-matched receive with retry: after each quiet
    /// [`RETRY_TIMEOUT`] a retransmit request is sent to `from`; after
    /// the world's oversubscription-scaled quiet-window budget (see
    /// [`recv_attempt_limit`]) the peer is declared dead.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        self.flush_delayed();
        if let Some(q) = self.pending.get_mut(&(from, tag)) {
            if !q.is_empty() {
                self.trace.msgs_recv.incr(1);
                return q.remove(0);
            }
        }
        let _wait = WaitTimer::start(&self.trace.recv_wait_ns);
        let mut attempts = 0u32;
        let mut limit = self.recv_attempts;
        let mut peer_gone = false;
        loop {
            match self.receiver.recv_timeout(RETRY_TIMEOUT) {
                Ok(m) => {
                    if let Some(data) = self.accept(m, from, tag) {
                        self.trace.msgs_recv.incr(1);
                        return data;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    attempts += 1;
                    if attempts >= limit {
                        panic!(
                            "{DEAD_RANK_MARKER}: rank {} gave up waiting for \
                             rank {from} tag {tag:#x}",
                            self.rank
                        );
                    }
                    if peer_gone {
                        continue;
                    }
                    // Ask the sender to retransmit. A failed push means the
                    // peer's endpoint is gone — but that alone does not
                    // prove the message is lost: a cleanly finished peer
                    // sent everything we are owed before exiting, and the
                    // payload may simply still be sitting in our queue. So
                    // switch to draining quietly under a short grace budget;
                    // only if nothing surfaces is the peer declared dead.
                    let req = Msg {
                        from: self.rank,
                        tag,
                        seq: 0,
                        ctrl: true,
                        data: Vec::new(),
                    };
                    if self.push(from, req).is_err() {
                        peer_gone = true;
                        limit = limit.min(attempts.saturating_add(GRACE_RECV_ATTEMPTS));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Impossible: we hold a sender to our own channel.
                    unreachable!("own channel disconnected");
                }
            }
        }
    }

    /// Dissemination barrier.
    pub fn barrier(&mut self, epoch: u64) {
        let _span = pf_trace::span_at("comm.barrier", self.rank);
        let tag = u64::MAX - epoch;
        let mut round = 1usize;
        while round < self.size {
            let to = (self.rank + round) % self.size;
            let from = (self.rank + self.size - round) % self.size;
            self.send(to, tag.wrapping_sub(round as u64), Vec::new());
            let _ = self.recv(from, tag.wrapping_sub(round as u64));
            round *= 2;
        }
    }

    /// Fault-immune barrier for end-of-run rendezvous: a rank only enters
    /// once all its receives have completed, so after every rank passes, no
    /// retransmission can be needed and endpoints may be dropped safely.
    /// While blocked inside, ranks still service peers' retransmit requests.
    pub fn shutdown_barrier(&mut self) {
        let _span = pf_trace::span_at("comm.shutdown_barrier", self.rank);
        let tag_base = 0x5AFE_0000_0000_0000u64;
        let mut round = 1usize;
        while round < self.size {
            let to = (self.rank + round) % self.size;
            let from = (self.rank + self.size - round) % self.size;
            self.send_immune(to, tag_base | round as u64, Vec::new());
            let _ = self.recv(from, tag_base | round as u64);
            round *= 2;
        }
    }

    /// All-reduce a vector of doubles with a binary op (sum/max/min).
    pub fn allreduce(
        &mut self,
        epoch: u64,
        mut data: Vec<f64>,
        op: fn(f64, f64) -> f64,
    ) -> Vec<f64> {
        // Gather to rank 0, reduce, broadcast — O(P) but simple and exact.
        let tag_up = 0xA11D_0000u64 ^ (epoch << 8);
        let tag_down = 0xA11D_0001u64 ^ (epoch << 8);
        if self.rank == 0 {
            for r in 1..self.size {
                let other = self.recv(r, tag_up);
                assert_eq!(other.len(), data.len());
                for (a, b) in data.iter_mut().zip(other) {
                    *a = op(*a, b);
                }
            }
            for r in 1..self.size {
                self.send(r, tag_down, data.clone());
            }
            data
        } else {
            self.send(0, tag_up, data);
            self.recv(0, tag_down)
        }
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // A delayed message must not be lost to normal shutdown; peers that
        // are already gone are ignored (nothing left to deliver to).
        for (to, msg) in std::mem::take(&mut self.delayed) {
            let _ = self.push(to, msg);
        }
    }
}

/// Run `f` on `size` rank threads and join (the `mpirun` analogue).
/// Panics in any rank propagate with their original payload, so callers
/// can recognise [`DEAD_RANK_MARKER`] panics via [`Comm::is_dead_rank_panic`].
pub fn run_ranks<F>(size: usize, f: F)
where
    F: Fn(Comm) + Sync,
{
    run_ranks_with_faults(size, None, f)
}

/// [`run_ranks`] with a fault plan applied to every endpoint.
pub fn run_ranks_with_faults<F>(size: usize, plan: Option<Arc<FaultPlan>>, f: F)
where
    F: Fn(Comm) + Sync,
{
    let world = Comm::world_with_faults(size, plan);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| s.spawn(move || f(comm)))
            .collect();
        // Join by hand so the *original* panic payload crosses the scope —
        // `scope` itself would replace it with "a scoped thread panicked".
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
}

static QUIET_DEPTH: AtomicUsize = AtomicUsize::new(0);
static QUIET_HOOK: Once = Once::new();

/// Run `f` with panic-hook output suppressed for [`DEAD_RANK_MARKER`]
/// panics. Rank death is *simulated* by panicking rank threads; without
/// this, every planned kill spams stderr with expected backtraces. Other
/// panics still print normally.
pub fn with_silenced_dead_rank_panics<R>(f: impl FnOnce() -> R) -> R {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = QUIET_DEPTH.load(Ordering::SeqCst) > 0;
            let ours = Comm::is_dead_rank_panic(info.payload());
            if !(quiet && ours) {
                prev(info);
            }
        }));
    });
    QUIET_DEPTH.fetch_add(1, Ordering::SeqCst);
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            QUIET_DEPTH.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _g = Guard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        run_ranks(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0, 2.0, 3.0]);
                let back = c.recv(1, 8);
                assert_eq!(back, vec![6.0]);
            } else {
                let v = c.recv(0, 7);
                c.send(0, 8, vec![v.iter().sum()]);
            }
        });
    }

    #[test]
    fn tag_matching_reorders() {
        run_ranks(2, |mut c| {
            if c.rank() == 0 {
                // Send tags in one order …
                c.send(1, 1, vec![1.0]);
                c.send(1, 2, vec![2.0]);
            } else {
                // … receive them in the other.
                let b = c.recv(0, 2);
                let a = c.recv(0, 1);
                assert_eq!((a[0], b[0]), (1.0, 2.0));
            }
        });
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        run_ranks(4, |mut c| {
            let mine = vec![c.rank() as f64, 1.0];
            let total = c.allreduce(0, mine, |a, b| a + b);
            assert_eq!(total, vec![6.0, 4.0]);
        });
    }

    #[test]
    fn allreduce_max() {
        run_ranks(3, |mut c| {
            let m = c.allreduce(1, vec![c.rank() as f64], f64::max);
            assert_eq!(m, vec![2.0]);
        });
    }

    #[test]
    fn barrier_completes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BEFORE: AtomicUsize = AtomicUsize::new(0);
        run_ranks(4, |mut c| {
            BEFORE.fetch_add(1, Ordering::SeqCst);
            c.barrier(0);
            assert_eq!(BEFORE.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn stats_count_bytes() {
        run_ranks(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![0.0; 100]);
                assert_eq!(c.stats.bytes_sent.load(Ordering::Relaxed), 800);
            } else {
                let _ = c.recv(0, 3);
            }
        });
    }

    #[test]
    fn duplicated_messages_are_deduplicated() {
        let plan = Arc::new(FaultPlan::new(11).dup_prob(1.0));
        run_ranks_with_faults(2, Some(plan), |mut c| {
            if c.rank() == 0 {
                c.send(1, 40, vec![1.0]);
                c.send(1, 41, vec![2.0]);
            } else {
                assert_eq!(c.recv(0, 40), vec![1.0]);
                assert_eq!(c.recv(0, 41), vec![2.0]);
                // Both duplicates must have been filtered, leaving nothing
                // pending for either tag.
                assert!(c.pending.values().all(|q| q.is_empty()));
            }
        });
    }

    #[test]
    fn dropped_messages_are_retransmitted_on_request() {
        let plan = Arc::new(FaultPlan::new(5).drop_prob(1.0));
        run_ranks_with_faults(2, Some(plan), |mut c| {
            // Every first copy is dropped; recv must recover both
            // directions via retransmit requests.
            if c.rank() == 0 {
                c.send(1, 50, vec![4.0, 5.0]);
                assert_eq!(c.recv(1, 51), vec![9.0]);
                assert!(c.stats.retransmits.load(Ordering::Relaxed) >= 1);
            } else {
                let v = c.recv(0, 50);
                c.send(0, 51, vec![v.iter().sum()]);
                assert!(c.stats.faults_injected.load(Ordering::Relaxed) >= 1);
            }
            // Without this rendezvous, a rank could exit while its peer
            // still needs a retransmission of a dropped message.
            c.shutdown_barrier();
        });
    }

    #[test]
    fn a_late_sender_is_served_no_retransmit_without_a_fault_plan() {
        let served = std::sync::Barrier::new(2);
        run_ranks(2, |mut c| {
            if c.rank() == 0 {
                // Late enough for rank 1 to time out and ask again, twice.
                std::thread::sleep(3 * RETRY_TIMEOUT);
                c.send(1, 5, vec![1.0, 2.0]);
                // The reply queued behind rank 1's requests: every one of
                // them has been through `accept` once it is here.
                assert_eq!(c.recv(1, 6), Vec::<f64>::new());
                served.wait();
            } else {
                assert_eq!(c.recv(0, 5), vec![1.0, 2.0]);
                c.send(0, 6, Vec::new());
                served.wait();
                // No second copy of the payload waits to be dedup-dropped.
                assert_eq!(c.receiver.try_iter().count(), 0);
            }
            assert_eq!(c.stats.retransmits.load(Ordering::Relaxed), 0);
            assert!(c.outbox.is_empty(), "a lossless world keeps no copies");
        });
    }

    #[test]
    fn delayed_messages_arrive_out_of_order_but_match() {
        let plan = Arc::new(FaultPlan::new(3).delay_prob(0.5));
        run_ranks_with_faults(2, Some(plan), |mut c| {
            if c.rank() == 0 {
                for t in 0..20u64 {
                    c.send(1, 100 + t, vec![t as f64]);
                }
            } else {
                for t in 0..20u64 {
                    assert_eq!(c.recv(0, 100 + t), vec![t as f64]);
                }
            }
        });
    }

    #[test]
    fn fault_rolls_are_deterministic() {
        let plan = FaultPlan::new(99).drop_prob(0.3).dup_prob(0.3);
        for tag in 0..64 {
            assert_eq!(plan.roll(0, 1, tag), plan.roll(0, 1, tag));
        }
        // With these odds, 64 tags must include at least one of each.
        let actions: Vec<FaultAction> = (0..64).map(|t| plan.roll(0, 1, t)).collect();
        assert!(actions.contains(&FaultAction::Drop));
        assert!(actions.contains(&FaultAction::Duplicate));
        assert!(actions.contains(&FaultAction::Deliver));
    }

    #[test]
    fn multi_kill_plans_disarm_one_wave_at_a_time() {
        let plan = FaultPlan::new(1)
            .kill_rank_at_step(3, 2)
            .kill_rank_at_step(7, 5)
            .kill_rank_at_step(1, 9);
        assert!(plan.should_kill(3, 2) && plan.should_kill(7, 5) && plan.should_kill(1, 9));
        assert!(!plan.should_kill(3, 5));
        // Each disarm removes exactly the earliest armed wave.
        let after_first = plan.disarmed();
        assert!(!after_first.should_kill(3, 2));
        assert!(after_first.should_kill(7, 5) && after_first.should_kill(1, 9));
        let after_second = after_first.disarmed();
        assert!(!after_second.should_kill(7, 5));
        assert!(after_second.should_kill(1, 9));
        assert!(after_second.disarmed().kills.is_empty());
        // Disarming an empty plan is a no-op, not a panic.
        assert!(after_second.disarmed().disarmed().kills.is_empty());
    }

    #[test]
    fn dead_rank_is_detected() {
        let caught = with_silenced_dead_rank_panics(|| {
            std::panic::catch_unwind(|| {
                run_ranks(2, |mut c| {
                    if c.rank() == 0 {
                        // Rank 0 exits immediately — simulated death.
                    } else {
                        let _ = c.recv(0, 7);
                    }
                });
            })
        });
        let err = caught.expect_err("recv from a dead rank must fail");
        assert!(
            Comm::is_dead_rank_panic(err.as_ref()),
            "panic payload lost its dead-rank marker"
        );
    }
}
