#![warn(missing_docs)]

//! # shasta-fgdsm — the downgrade protocol under real concurrency
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The simulator in `shasta-core` *models* the paper's race conditions; this
//! crate faces them for real. It is an in-process fine-grain DSM runtime
//! where every simulated "processor" is an OS thread and every design point
//! of §3.3/§3.4 maps onto the Rust memory model:
//!
//! * **Application data** is `AtomicU32` words accessed with `Relaxed`
//!   ordering — the sound Rust analogue of the paper's plain Alpha loads and
//!   stores: no tearing, no UB, and *no ordering*, which is exactly the
//!   ground the paper's protocol has to stand on.
//! * **Inline checks** use the invalid-flag technique for loads (compare the
//!   loaded word against [`INVALID_FLAG`]) and a **private state table**
//!   lookup for stores — with *no fences and no locks*, as in the paper.
//! * Private state tables are **single-writer**: only the owning thread
//!   updates its entries (in its miss handler and when it handles a
//!   downgrade message at a **poll point**), so the inline read is always
//!   that thread's own last write.
//! * Cross-thread ordering comes only from the **downgrade counter**
//!   (`Release` decrement / `Acquire` wait) and the per-line protocol
//!   mutexes — never from the inline path.
//!
//! A deliberately broken [`Mode::Naive`] skips the downgrade handshake and
//! demonstrably **loses stores** (Figure 2(a) of the paper) under the stress
//! tests, while [`Mode::Downgrade`] never does.
//!
//! The inter-node "network" (directory and block transfer) is centralized
//! behind per-line mutexes — the paper's home/owner message plumbing is the
//! simulator's job; what this crate keeps real is the intra-node data-plane
//! race the paper is about.
//!
//! # Example
//!
//! ```
//! use shasta_fgdsm::{Config, FgDsm, Mode};
//!
//! // Two 2-thread nodes; every thread increments its own word 1000 times.
//! let cfg = Config { nodes: 2, threads_per_node: 2, words: 64, ..Config::default() };
//! let dsm = FgDsm::new(cfg);
//! dsm.run(|h| {
//!     let me = (h.node() * 2 + h.thread()) as usize;
//!     for _ in 0..1000 {
//!         let v = h.load(me);
//!         h.store(me, v + 1);
//!     }
//!     h.barrier();
//!     if h.node() == 0 && h.thread() == 0 {
//!         for t in 0..4 {
//!             assert_eq!(h.load(t), 1000);
//!         }
//!     }
//! });
//! ```

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// The value stored in every word of an invalidated line (§2.3).
pub const INVALID_FLAG: u32 = 0xDEAD_BEEF;

/// Words per coherence line (16 × 4 bytes = 64 bytes, the paper's default).
pub const LINE_WORDS: usize = 16;

/// Private/shared state encoding.
const ST_INVALID: u8 = 0;
const ST_SHARED: u8 = 1;
const ST_EXCLUSIVE: u8 = 2;

/// Protocol variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mode {
    /// The paper's protocol: explicit downgrade messages handled at poll
    /// points; the protocol waits for every recipient before touching data.
    #[default]
    Downgrade,
    /// The broken strawman of §3.2: downgrade the state and read the data
    /// without synchronizing with concurrently-storing threads. Loses
    /// updates under contention (Figure 2a).
    Naive,
}

/// Runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of nodes (sharing groups with separate memory images).
    pub nodes: u32,
    /// Threads per node.
    pub threads_per_node: u32,
    /// Shared words (u32) in the address space.
    pub words: usize,
    /// Protocol variant.
    pub mode: Mode,
    /// Artificial widening of the naive mode's race window between reading
    /// remote data and writing flag values, in microseconds of forced sleep
    /// (test aid; 0 disables the widening).
    pub naive_race_spin: u32,
    /// Injected cross-node transfer delay in microseconds: every inter-node
    /// line copy sleeps this long *after* the downgrade handshake and
    /// *before* reading the source data. The §3.3 discipline is
    /// delay-invariant — the handshake already quiesced every writer, so an
    /// arbitrarily slow "wire" changes timing but never outcomes (test aid;
    /// 0 disables the delay).
    pub transfer_delay_us: u32,
    /// Inline accesses between automatic polls (the paper's loop back-edge
    /// polling; every access path polls after this many operations).
    pub poll_interval: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            nodes: 2,
            threads_per_node: 2,
            words: 1_024,
            mode: Mode::Downgrade,
            naive_race_spin: 0,
            transfer_delay_us: 0,
            poll_interval: 64,
        }
    }
}

/// A downgrade request delivered to a thread's inbox.
struct DowngradeMsg {
    line: usize,
    to: u8,
    /// Recipients yet to handle the message; the initiator waits for zero.
    pending: Arc<AtomicU32>,
}

/// Global directory entry for one line.
#[derive(Default)]
struct DirEntry {
    /// Bit per node holding a copy.
    sharers: u64,
    /// Node holding the (single) exclusive copy, if `exclusive`.
    owner: u32,
    exclusive: bool,
}

/// One node's memory image and state.
struct Node {
    mem: Vec<AtomicU32>,
    /// Shared (node-level) state per line; written only under the line lock.
    state: Vec<AtomicU8>,
    /// Private state tables: `priv_state[thread][line]`, single-writer (the
    /// owning thread), read by protocol code under the line lock.
    priv_state: Vec<Vec<AtomicU8>>,
}

struct Inner {
    cfg: Config,
    nodes: Vec<Node>,
    dir: Vec<Mutex<DirEntry>>,
    /// Per-thread inboxes, indexed `[node][thread]`.
    inboxes: Vec<Vec<Sender<DowngradeMsg>>>,
    /// Application spin locks (word per lock id).
    app_locks: Vec<AtomicU32>,
    /// Sense-reversing barrier.
    barrier_count: AtomicU32,
    barrier_gen: AtomicU32,
    total_threads: u32,
    /// Statistics: downgrade messages sent.
    pub dg_messages: AtomicU64,
    /// Statistics: line transfers between nodes.
    pub transfers: AtomicU64,
    /// Statistics: inline load checks that fell into the miss handler.
    pub load_misses: AtomicU64,
    /// Statistics: inline store checks that fell into the miss handler.
    pub store_misses: AtomicU64,
}

/// The runtime handle; clone-free, shared by reference into threads.
pub struct FgDsm {
    inner: Arc<Inner>,
    receivers: Mutex<Vec<Vec<Option<Receiver<DowngradeMsg>>>>>,
}

/// Statistics observed after a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FgStats {
    /// Downgrade messages sent between threads.
    pub downgrade_messages: u64,
    /// Line transfers between nodes.
    pub line_transfers: u64,
    /// Inline load checks that entered the miss handler (including false
    /// misses on flag-valued data).
    pub load_misses: u64,
    /// Inline store checks that entered the miss handler (including
    /// private-state upgrades).
    pub store_misses: u64,
}

impl FgDsm {
    /// Builds a runtime. Every line starts exclusive at node 0 with zeroed
    /// contents; other nodes hold flag values.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not a multiple of [`LINE_WORDS`] or any count is
    /// zero.
    pub fn new(cfg: Config) -> Self {
        assert!(cfg.nodes > 0 && cfg.threads_per_node > 0, "empty topology");
        assert!(
            cfg.words > 0 && cfg.words.is_multiple_of(LINE_WORDS),
            "words must be line-aligned"
        );
        let lines = cfg.words / LINE_WORDS;
        let nodes = (0..cfg.nodes)
            .map(|n| Node {
                mem: (0..cfg.words)
                    .map(|_| AtomicU32::new(if n == 0 { 0 } else { INVALID_FLAG }))
                    .collect(),
                state: (0..lines)
                    .map(|_| AtomicU8::new(if n == 0 { ST_EXCLUSIVE } else { ST_INVALID }))
                    .collect(),
                priv_state: (0..cfg.threads_per_node)
                    .map(|t| {
                        (0..lines)
                            .map(|_| {
                                // Thread 0 of node 0 is the initializer/owner.
                                AtomicU8::new(if n == 0 && t == 0 {
                                    ST_EXCLUSIVE
                                } else {
                                    ST_INVALID
                                })
                            })
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        let mut inboxes = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..cfg.nodes {
            let mut txs = Vec::new();
            let mut rxs = Vec::new();
            for _ in 0..cfg.threads_per_node {
                let (tx, rx) = mpsc::channel();
                txs.push(tx);
                rxs.push(Some(rx));
            }
            inboxes.push(txs);
            receivers.push(rxs);
        }
        FgDsm {
            inner: Arc::new(Inner {
                nodes,
                dir: (0..lines)
                    .map(|_| Mutex::new(DirEntry { sharers: 1, owner: 0, exclusive: true }))
                    .collect(),
                inboxes,
                app_locks: (0..256).map(|_| AtomicU32::new(u32::MAX)).collect(),
                barrier_count: AtomicU32::new(0),
                barrier_gen: AtomicU32::new(0),
                total_threads: cfg.nodes * cfg.threads_per_node,
                dg_messages: AtomicU64::new(0),
                transfers: AtomicU64::new(0),
                load_misses: AtomicU64::new(0),
                store_misses: AtomicU64::new(0),
                cfg,
            }),
            receivers: Mutex::new(receivers),
        }
    }

    /// Runs `f` on every thread of the configured topology and joins them.
    ///
    /// # Panics
    ///
    /// Propagates the first panicking thread's panic.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&mut Handle<'_>) + Send + Sync,
    {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut rxs = self.receivers.lock().expect("receiver table poisoned by an earlier run");
            for n in 0..self.inner.cfg.nodes {
                for t in 0..self.inner.cfg.threads_per_node {
                    let rx = rxs[n as usize][t as usize].take().expect("run() called twice");
                    let inner = Arc::clone(&self.inner);
                    let f = &f;
                    handles.push(scope.spawn(move || {
                        let mut h = Handle { inner: &inner, node: n, thread: t, inbox: rx, ops: 0 };
                        f(&mut h);
                        // Final drain so no downgrade waits on a dead thread.
                        h.barrier();
                        h.poll();
                        h.inbox
                    }));
                }
            }
            drop(rxs);
            let mut back =
                self.receivers.lock().expect("receiver table poisoned by an earlier run");
            let mut iter = handles.into_iter();
            for n in 0..self.inner.cfg.nodes {
                for t in 0..self.inner.cfg.threads_per_node {
                    let rx = iter.next().expect("handle").join().expect("fgdsm thread panicked");
                    back[n as usize][t as usize] = Some(rx);
                }
            }
        });
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> FgStats {
        FgStats {
            downgrade_messages: self.inner.dg_messages.load(Ordering::Relaxed),
            line_transfers: self.inner.transfers.load(Ordering::Relaxed),
            load_misses: self.inner.load_misses.load(Ordering::Relaxed),
            store_misses: self.inner.store_misses.load(Ordering::Relaxed),
        }
    }
}

/// Per-thread access handle.
pub struct Handle<'a> {
    inner: &'a Inner,
    node: u32,
    thread: u32,
    inbox: Receiver<DowngradeMsg>,
    ops: u32,
}

impl<'a> Handle<'a> {
    /// This thread's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// This thread's index within its node.
    pub fn thread(&self) -> u32 {
        self.thread
    }

    fn mynode(&self) -> &Node {
        &self.inner.nodes[self.node as usize]
    }

    fn my_priv(&self, line: usize) -> &AtomicU8 {
        &self.mynode().priv_state[self.thread as usize][line]
    }

    /// Handles pending downgrade messages (a loop back-edge poll, §2.1).
    pub fn poll(&mut self) {
        while let Ok(msg) = self.inbox.try_recv() {
            // Lower our private state; we are its only writer.
            let p = self.my_priv(msg.line);
            if p.load(Ordering::Relaxed) > msg.to {
                p.store(msg.to, Ordering::Relaxed);
            }
            // Release-publish every store we performed before handling the
            // downgrade; the waiting protocol thread acquires on this.
            msg.pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn maybe_poll(&mut self) {
        self.ops += 1;
        if self.ops >= self.inner.cfg.poll_interval {
            self.ops = 0;
            self.poll();
        }
    }

    /// Loads the shared word at `idx` (flag-technique inline check: one
    /// relaxed load, one compare; no fences).
    pub fn load(&mut self, idx: usize) -> u32 {
        self.maybe_poll();
        let w = self.mynode().mem[idx].load(Ordering::Relaxed);
        if w != INVALID_FLAG {
            return w;
        }
        self.load_miss(idx)
    }

    /// Batched load of `n` consecutive words starting at `idx` — the
    /// paper's batching optimization (§2.3), with the §3.4.1/§3.4.4
    /// discipline: the covered words are read with *no poll in between*, so
    /// a concurrent invalidation cannot write flag values into the middle
    /// of the batch (the invalidator's downgrade handshake must wait for
    /// this thread's next poll, which comes only after the batch ends).
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a line boundary (batches check whole
    /// lines; keep ranges within one line as the inline code would).
    pub fn load_range(&mut self, idx: usize, n: usize) -> Vec<u32> {
        assert!(n > 0 && (idx % LINE_WORDS) + n <= LINE_WORDS, "batch must stay within one line");
        self.maybe_poll(); // the batch check itself is a poll point...
        let line = idx / LINE_WORDS;
        // Batch check: the private state table (never the flag, §3.4.1).
        if self.my_priv(line).load(Ordering::Relaxed) < ST_SHARED {
            // Batch miss handler: fetch under the line lock and upgrade.
            self.inner.load_misses.fetch_add(1, Ordering::Relaxed);
            let mut dir = self.lock_line(line);
            let node_state = self.mynode().state[line].load(Ordering::Relaxed);
            if node_state < ST_SHARED {
                self.fetch_line(&mut dir, line, false);
            }
            let p = self.my_priv(line);
            if p.load(Ordering::Relaxed) < ST_SHARED {
                p.store(ST_SHARED, Ordering::Relaxed);
            }
        }
        // ...but the covered loads run unchecked and unpolled.
        (idx..idx + n).map(|w| self.mynode().mem[w].load(Ordering::Relaxed)).collect()
    }

    /// Stores `value` to the shared word at `idx` (private-state-table
    /// inline check: one relaxed load of our own table; no fences).
    pub fn store(&mut self, idx: usize, value: u32) {
        self.maybe_poll();
        let line = idx / LINE_WORDS;
        if self.my_priv(line).load(Ordering::Relaxed) == ST_EXCLUSIVE {
            self.mynode().mem[idx].store(value, Ordering::Relaxed);
            return;
        }
        self.store_miss(idx, value);
    }

    /// Spin-acquires a protocol line lock, polling while waiting so
    /// downgrades aimed at us cannot deadlock the holder. The guard borrows
    /// the runtime (`'a`), not this handle, so protocol code can keep using
    /// `self` while holding it.
    fn lock_line(&mut self, line: usize) -> MutexGuard<'a, DirEntry> {
        let inner: &'a Inner = self.inner;
        loop {
            match inner.dir[line].try_lock() {
                Ok(g) => return g,
                Err(TryLockError::Poisoned(_)) => {
                    panic!("line {line} lock poisoned: a runtime thread panicked under it")
                }
                Err(TryLockError::WouldBlock) => {}
            }
            self.poll();
            // Yield rather than pure spin: on a single-CPU host the lock
            // holder cannot run while we burn our quantum.
            std::thread::yield_now();
        }
    }

    #[cold]
    fn load_miss(&mut self, idx: usize) -> u32 {
        self.inner.load_misses.fetch_add(1, Ordering::Relaxed);
        let line = idx / LINE_WORDS;
        let mut dir = self.lock_line(line);
        let node_state = self.mynode().state[line].load(Ordering::Relaxed);
        if node_state >= ST_SHARED {
            // False miss: the data legitimately contains the flag value (or
            // a racing fetch completed first). Upgrade our private entry.
            let p = self.my_priv(line);
            if p.load(Ordering::Relaxed) < ST_SHARED {
                p.store(ST_SHARED, Ordering::Relaxed);
            }
            return self.mynode().mem[idx].load(Ordering::Relaxed);
        }
        // Fetch a shared copy: downgrade the exclusive owner (if any) to
        // shared, then copy its data here.
        self.fetch_line(&mut dir, line, false);
        self.my_priv(line).store(ST_SHARED, Ordering::Relaxed);
        self.mynode().mem[idx].load(Ordering::Relaxed)
    }

    #[cold]
    fn store_miss(&mut self, idx: usize, value: u32) {
        self.inner.store_misses.fetch_add(1, Ordering::Relaxed);
        let line = idx / LINE_WORDS;
        let mut dir = self.lock_line(line);
        let node_state = self.mynode().state[line].load(Ordering::Relaxed);
        if node_state == ST_EXCLUSIVE {
            // The node already owns it; just upgrade our private entry.
            self.my_priv(line).store(ST_EXCLUSIVE, Ordering::Relaxed);
            self.mynode().mem[idx].store(value, Ordering::Relaxed);
            return;
        }
        self.fetch_line(&mut dir, line, true);
        self.my_priv(line).store(ST_EXCLUSIVE, Ordering::Relaxed);
        self.mynode().mem[idx].store(value, Ordering::Relaxed);
    }

    /// Downgrades `node`'s copy of `line` to `to`, using explicit messages
    /// to exactly the threads whose private tables show access (§3.3) —
    /// or, in naive mode, by fiat (the broken strawman).
    fn downgrade_node(&mut self, node: u32, line: usize, to: u8) {
        let inner = self.inner;
        let threads = inner.cfg.threads_per_node;
        match inner.cfg.mode {
            Mode::Downgrade => {
                let pending = Arc::new(AtomicU32::new(0));
                let mut sent = 0;
                for t in 0..threads {
                    if node == self.node && t == self.thread {
                        // The initiator downgrades itself directly.
                        let p = self.my_priv(line);
                        if p.load(Ordering::Relaxed) > to {
                            p.store(to, Ordering::Relaxed);
                        }
                        continue;
                    }
                    let ps = inner.nodes[node as usize].priv_state[t as usize][line]
                        .load(Ordering::Relaxed);
                    let needs = match to {
                        ST_SHARED => ps == ST_EXCLUSIVE,
                        _ => ps >= ST_SHARED,
                    };
                    if needs {
                        pending.fetch_add(1, Ordering::Relaxed);
                        sent += 1;
                        inner.inboxes[node as usize][t as usize]
                            .send(DowngradeMsg { line, to, pending: Arc::clone(&pending) })
                            .expect("inbox closed");
                    }
                }
                inner.dg_messages.fetch_add(sent, Ordering::Relaxed);
                // Wait for every recipient, polling our own inbox meanwhile
                // (the paper's protocol polls while waiting, so two nodes
                // downgrading each other cannot deadlock).
                while pending.load(Ordering::Acquire) != 0 {
                    self.poll();
                    std::thread::yield_now();
                }
            }
            Mode::Naive => {
                // §3.2 / Figure 2(a)'s losing strategy: downgrade the node
                // state and read the data with *no* notification to the
                // threads whose inline checks still claim exclusivity. Their
                // in-flight (and future) stores land in a copy that is about
                // to be read out and flagged over — lost updates.
                let _ = (threads, to);
            }
        }
        inner.nodes[node as usize].state[line].store(to, Ordering::Relaxed);
    }

    /// Transfers `line` to this thread's node in shared or exclusive state.
    /// Caller holds the line lock.
    fn fetch_line(&mut self, dir: &mut DirEntry, line: usize, exclusive: bool) {
        let inner = self.inner;
        let me = self.node;
        // Find a node with a valid copy to source the data from.
        let src = if dir.exclusive {
            dir.owner
        } else {
            (0..64).find(|n| dir.sharers & (1 << n) != 0).expect("no copy") as u32
        };
        // Downgrade every other holder as required.
        if exclusive {
            let holders: Vec<u32> =
                (0..inner.cfg.nodes).filter(|n| dir.sharers & (1 << n) != 0 && *n != me).collect();
            for h in holders {
                self.downgrade_node(h, line, ST_INVALID);
            }
        } else if dir.exclusive && dir.owner != me {
            self.downgrade_node(dir.owner, line, ST_SHARED);
        }
        // Copy the data (after all downgrades have been acknowledged, so
        // in-flight local stores on the source node are included).
        if src != me {
            if inner.cfg.transfer_delay_us > 0 {
                // Injected cross-box delay between the handshake and the
                // copy — the window a handshake-free protocol would lose
                // stores in. §3.3 has already quiesced every writer here.
                std::thread::sleep(std::time::Duration::from_micros(
                    inner.cfg.transfer_delay_us as u64,
                ));
            }
            inner.transfers.fetch_add(1, Ordering::Relaxed);
            let base = line * LINE_WORDS;
            for w in 0..LINE_WORDS {
                let v = inner.nodes[src as usize].mem[base + w].load(Ordering::Relaxed);
                inner.nodes[me as usize].mem[base + w].store(v, Ordering::Relaxed);
            }
        }
        // Invalidated nodes get flag values (after the copy-out). In naive
        // mode an optional spin widens the window in which a victim's store
        // lands after the copy and is then destroyed by the flag write.
        if inner.cfg.mode == Mode::Naive && inner.cfg.naive_race_spin > 0 {
            // Force a deschedule so victim threads run inside the window
            // (essential on single-CPU hosts, where `yield_now` under CFS
            // often does nothing and preemption is the only concurrency).
            std::thread::sleep(std::time::Duration::from_micros(inner.cfg.naive_race_spin as u64));
        }
        if exclusive {
            for n in 0..inner.cfg.nodes {
                if n != me && dir.sharers & (1 << n) != 0 {
                    let base = line * LINE_WORDS;
                    for w in 0..LINE_WORDS {
                        inner.nodes[n as usize].mem[base + w]
                            .store(INVALID_FLAG, Ordering::Relaxed);
                    }
                }
            }
            dir.sharers = 1 << me;
            dir.owner = me;
            dir.exclusive = true;
            inner.nodes[me as usize].state[line].store(ST_EXCLUSIVE, Ordering::Relaxed);
        } else {
            dir.sharers |= 1 << me;
            dir.exclusive = false;
            inner.nodes[me as usize].state[line].store(ST_SHARED, Ordering::Relaxed);
        }
    }

    /// Acquires application spin lock `id` (polling while spinning).
    pub fn lock(&mut self, id: usize) {
        let me = self.node * self.inner.cfg.threads_per_node + self.thread;
        let word = &self.inner.app_locks[id % self.inner.app_locks.len()];
        loop {
            if word.compare_exchange(u32::MAX, me, Ordering::Acquire, Ordering::Relaxed).is_ok() {
                return;
            }
            self.poll();
            std::thread::yield_now();
        }
    }

    /// Releases application lock `id`.
    ///
    /// # Panics
    ///
    /// Panics if this thread does not hold the lock.
    pub fn unlock(&mut self, id: usize) {
        let me = self.node * self.inner.cfg.threads_per_node + self.thread;
        let word = &self.inner.app_locks[id % self.inner.app_locks.len()];
        let prev = word.swap(u32::MAX, Ordering::Release);
        assert_eq!(prev, me, "lock released by non-holder");
    }

    /// Waits at a global sense-reversing barrier (polling while spinning).
    pub fn barrier(&mut self) {
        let inner = self.inner;
        let gen = inner.barrier_gen.load(Ordering::Acquire);
        if inner.barrier_count.fetch_add(1, Ordering::AcqRel) + 1 == inner.total_threads {
            inner.barrier_count.store(0, Ordering::Relaxed);
            inner.barrier_gen.store(gen + 1, Ordering::Release);
        } else {
            while inner.barrier_gen.load(Ordering::Acquire) == gen {
                self.poll();
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_round_trip() {
        let dsm =
            FgDsm::new(Config { nodes: 1, threads_per_node: 1, words: 64, ..Config::default() });
        dsm.run(|h| {
            for i in 0..64 {
                h.store(i, i as u32 * 3);
            }
            for i in 0..64 {
                assert_eq!(h.load(i), i as u32 * 3);
            }
        });
    }

    #[test]
    fn flag_valued_data_false_miss() {
        let dsm =
            FgDsm::new(Config { nodes: 2, threads_per_node: 1, words: 16, ..Config::default() });
        dsm.run(|h| {
            if h.node() == 0 {
                h.store(0, INVALID_FLAG);
            }
            h.barrier();
            if h.node() == 1 {
                // The flag check fires, the miss handler fetches, and the
                // second read is a false miss against valid data.
                assert_eq!(h.load(0), INVALID_FLAG);
                assert_eq!(h.load(0), INVALID_FLAG);
            }
        });
    }

    #[test]
    fn producer_consumer_across_nodes() {
        let dsm = FgDsm::new(Config::default());
        dsm.run(|h| {
            if h.node() == 0 && h.thread() == 0 {
                for i in 0..LINE_WORDS {
                    h.store(i, 0x100 + i as u32);
                }
            }
            h.barrier();
            assert_eq!(h.load(3), 0x103);
        });
        assert!(dsm.stats().line_transfers > 0);
    }
}
