//! The span tracer: thread-local span stacks over a monotonic clock,
//! feeding a bounded, sharded ring buffer of completed events.
//!
//! Design constraints, in order:
//!
//! * **Disabled is free.** Every recording entry point loads one relaxed
//!   atomic and returns — no clock read, no thread-local setup, no lock.
//!   Campaign hot paths keep their instrumentation unconditionally in
//!   place.
//! * **Enabled is cheap and bounded.** A completed span is one event
//!   pushed under one uncontended per-shard mutex into a fixed-capacity
//!   deque (threads map to shards by id, so campaign workers almost never
//!   share one). When a shard is full the *oldest* event in that shard is
//!   dropped and counted — a tracer must never become the memory leak it
//!   is hunting.
//! * **Events are whole spans.** The ring stores `(start, duration)`
//!   records pushed at span *close*, never paired begin/end markers, so
//!   overflow can only lose whole spans — a drained ring always parses
//!   into well-nested timelines.
//!
//! Nesting is tracked per thread by an RAII [`Span`] guard and a
//! thread-local depth counter. Guards dropped out of stack order are
//! detected (the close-depth mismatch) and counted rather than panicking:
//! observability must not take down a campaign.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One completed trace event: a closed span or an instant marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Originating process: `None` for this process, a name for events
    /// injected from a remote worker ([`inject_foreign`]).
    pub process: Option<String>,
    /// Tracer-assigned thread id within the originating process.
    pub tid: u32,
    /// Span name (static for locally recorded spans).
    pub name: Cow<'static, str>,
    /// Optional dynamic label (kernel id, job id, worker name, ...).
    pub label: Option<String>,
    /// Start, in nanoseconds on the originating process's trace clock.
    pub start_ns: u64,
    /// Duration in nanoseconds; zero for instants.
    pub dur_ns: u64,
    /// Nesting depth at open (0 = top-level on its thread).
    pub depth: u32,
    /// Instant marker rather than a span.
    pub instant: bool,
}

/// A bounded, sharded ring buffer of [`Event`]s.
///
/// Pushes take one short per-shard mutex; overflow drops the shard's
/// oldest event first and counts it. Shard assignment follows the pusher's
/// thread id, so per-thread event order is preserved within a shard.
#[derive(Debug)]
pub struct Ring {
    shards: Vec<Mutex<VecDeque<Event>>>,
    per_shard: usize,
    dropped: AtomicU64,
}

fn unpoisoned<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Ring {
    /// A ring of `shards` deques holding at most `per_shard` events each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(shards: usize, per_shard: usize) -> Ring {
        assert!(shards > 0 && per_shard > 0, "ring must have capacity");
        Ring {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_shard,
            dropped: AtomicU64::new(0),
        }
    }

    /// Pushes one event into the shard selected by `shard_hint` (callers
    /// pass their thread id). Drops that shard's oldest event when full.
    pub fn push(&self, shard_hint: u32, event: Event) {
        let shard = &self.shards[shard_hint as usize % self.shards.len()];
        let mut q = unpoisoned(shard);
        if q.len() >= self.per_shard {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    }

    /// Copies out every buffered event, ordered by start time.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .shards
            .iter()
            .flat_map(|s| unpoisoned(s).iter().cloned().collect::<Vec<_>>())
            .collect();
        events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        events
    }

    /// Moves out every buffered event, ordered by start time, leaving the
    /// ring empty (the drop counter is preserved).
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .shards
            .iter()
            .flat_map(|s| std::mem::take(&mut *unpoisoned(s)))
            .collect();
        events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        events
    }

    /// Events dropped to overflow since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Global enable gate. All recording entry points check this first; the
/// disabled path is a single relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Spans closed out of stack order (guard leaked past its parent's close).
static MISNESTED: AtomicU64 = AtomicU64::new(0);

/// Next tracer thread id (0 is reserved for "unregistered").
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Tracer thread names, `(tid, name)`, for trace metadata.
static THREAD_NAMES: OnceLock<Mutex<Vec<(u32, String)>>> = OnceLock::new();

/// Ring shards for locally recorded events. 8 shards x 8192 events bounds
/// the tracer at a few MiB regardless of campaign length.
const LOCAL_SHARDS: usize = 8;
const LOCAL_PER_SHARD: usize = 8192;

/// Capacity for events injected from remote workers (single shard: the
/// injector is the coordinator's submission handler, one at a time).
const FOREIGN_PER_SHARD: usize = 1 << 16;

fn local_ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(LOCAL_SHARDS, LOCAL_PER_SHARD))
}

fn foreign_ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(1, FOREIGN_PER_SHARD))
}

fn clock_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds on this process's monotonic trace clock (anchored at the
/// tracer's first use).
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(clock_anchor().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on or off process-wide. Metrics (counters,
/// histograms) are always live; only the event ring is gated.
pub fn set_tracing(on: bool) {
    // Pin the clock anchor before the first recorded event so span
    // timestamps never precede the anchor.
    let _ = clock_anchor();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span recording is on.
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// This thread's tracer id, registering its name on first use.
fn current_tid() -> u32 {
    TID.with(|slot| {
        let cached = slot.get();
        if cached != 0 {
            return cached;
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{tid}"), str::to_owned);
        unpoisoned(THREAD_NAMES.get_or_init(|| Mutex::new(Vec::new()))).push((tid, name));
        slot.set(tid);
        tid
    })
}

/// An open span; closing (dropping) the guard records the event.
///
/// Created by [`span`] / [`span_labeled`]. When tracing is disabled the
/// guard is inert and costs nothing to drop.
#[must_use = "a span measures the scope holding the guard"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    label: Option<String>,
    start_ns: u64,
    depth: u32,
    armed: bool,
}

/// Opens a span named `name` on this thread.
pub fn span(name: &'static str) -> Span {
    open_span(name, None)
}

/// Opens a span with a dynamic label (kernel id, job id, ...).
pub fn span_labeled(name: &'static str, label: impl Into<String>) -> Span {
    open_span(name, Some(label.into()))
}

fn open_span(name: &'static str, label: Option<String>) -> Span {
    if !tracing_enabled() {
        return Span {
            name,
            label: None,
            start_ns: 0,
            depth: 0,
            armed: false,
        };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span {
        name,
        label,
        start_ns: now_ns(),
        depth,
        armed: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let expected = DEPTH.with(|d| {
            let v = d.get().saturating_sub(1);
            d.set(v);
            v
        });
        if expected != self.depth {
            // Closed out of stack order; count it, record anyway.
            MISNESTED.fetch_add(1, Ordering::Relaxed);
        }
        let tid = current_tid();
        local_ring().push(
            tid,
            Event {
                process: None,
                tid,
                name: Cow::Borrowed(self.name),
                label: self.label.take(),
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                depth: self.depth,
                instant: false,
            },
        );
    }
}

/// Records a span that began at `start_ns` (a [`now_ns`] reading) and
/// ends now, at this thread's current depth. For a scope whose start may
/// precede tracing being switched on: a fleet worker learns that it is
/// traced only from its first grant.
pub fn record_span(name: &'static str, start_ns: u64) {
    if !tracing_enabled() {
        return;
    }
    let tid = current_tid();
    let end = now_ns();
    local_ring().push(
        tid,
        Event {
            process: None,
            tid,
            name: Cow::Borrowed(name),
            label: None,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            depth: DEPTH.with(Cell::get),
            instant: false,
        },
    );
}

/// Records a zero-duration instant marker (heartbeats, grants, ...).
pub fn instant(name: &'static str, label: Option<String>) {
    if !tracing_enabled() {
        return;
    }
    let tid = current_tid();
    local_ring().push(
        tid,
        Event {
            process: None,
            tid,
            name: Cow::Borrowed(name),
            label,
            start_ns: now_ns(),
            dur_ns: 0,
            depth: DEPTH.with(Cell::get),
            instant: true,
        },
    );
}

/// Injects events recorded by another process (a fleet worker) into this
/// process's trace, stamped with `process`. Timestamps must already be
/// rebased onto this process's trace clock.
pub fn inject_foreign(process: &str, events: impl IntoIterator<Item = Event>) {
    let ring = foreign_ring();
    for mut event in events {
        event.process = Some(process.to_owned());
        ring.push(0, event);
    }
}

/// A copied-out view of the trace state: local and injected-foreign
/// events on one clock, plus tracer health counters.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// All buffered events, ordered by start time.
    pub events: Vec<Event>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Spans closed out of stack order.
    pub misnested: u64,
    /// Local `(tid, thread name)` pairs seen by the tracer.
    pub threads: Vec<(u32, String)>,
}

fn assemble(mut events: Vec<Event>, mut foreign: Vec<Event>) -> TraceSnapshot {
    events.append(&mut foreign);
    events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    TraceSnapshot {
        events,
        dropped: local_ring().dropped() + foreign_ring().dropped(),
        misnested: MISNESTED.load(Ordering::Relaxed),
        threads: THREAD_NAMES
            .get()
            .map(|names| unpoisoned(names).clone())
            .unwrap_or_default(),
    }
}

/// Copies the current trace buffer without clearing it.
#[must_use]
pub fn snapshot() -> TraceSnapshot {
    assemble(local_ring().snapshot(), foreign_ring().snapshot())
}

/// Moves the current trace buffer out, leaving it empty (drop and
/// misnesting counters are preserved). Fleet workers drain after each
/// lease so spans ship exactly once.
#[must_use]
pub fn drain() -> TraceSnapshot {
    assemble(local_ring().drain(), foreign_ring().drain())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: u64, dur: u64) -> Event {
        Event {
            process: None,
            tid: 1,
            name: Cow::Borrowed("e"),
            label: None,
            start_ns: start,
            dur_ns: dur,
            depth: 0,
            instant: false,
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_first_and_counts() {
        let ring = Ring::new(1, 4);
        for i in 0..7 {
            ring.push(0, ev(i, 1));
        }
        assert_eq!(ring.dropped(), 3);
        let events = ring.snapshot();
        assert_eq!(
            events.iter().map(|e| e.start_ns).collect::<Vec<_>>(),
            [3, 4, 5, 6],
            "the three oldest events are the ones dropped"
        );
        // Draining empties the buffer but keeps the drop counter.
        assert_eq!(ring.drain().len(), 4);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn ring_orders_across_shards_by_start() {
        let ring = Ring::new(4, 16);
        for i in 0..8u32 {
            ring.push(i, ev(u64::from(7 - i), 1));
        }
        let starts: Vec<u64> = ring.snapshot().iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn disabled_span_is_inert() {
        // The gate defaults off; guards must not touch the depth counter
        // (tests that enable tracing live in tests/tracer_global.rs to
        // avoid racing this one).
        let before = DEPTH.with(Cell::get);
        let guard = span("inert");
        assert_eq!(DEPTH.with(Cell::get), before);
        drop(guard);
        assert_eq!(DEPTH.with(Cell::get), before);
    }
}
