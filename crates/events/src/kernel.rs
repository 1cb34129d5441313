//! The kernel: clock + event queue + telemetry.

use std::collections::{BTreeMap, HashSet};

use sia_telemetry::Counter;

use crate::queue::EventQueue;

/// A typed event payload.
///
/// `kind` labels the per-event-type telemetry counters
/// (`events.fired.<kind>`); `priority` is the same-timestamp ordering class
/// — lower values fire first among events with equal time, FIFO within a
/// class. Use priorities to encode causality at shared timestamps (e.g. a
/// completion at a round boundary must be observed before that round's
/// scheduling timer).
pub trait EventPayload {
    /// Stable, static label for telemetry counters.
    fn kind(&self) -> &'static str;

    /// Same-timestamp ordering class; lower fires first. Defaults to 0.
    fn priority(&self) -> u8 {
        0
    }
}

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// A fired event: when it fired, its id, and its payload.
#[derive(Debug)]
pub struct Event<E> {
    /// The handle the event was scheduled under.
    pub id: EventId,
    /// Simulated firing time, seconds.
    pub time: f64,
    /// The typed payload.
    pub payload: E,
}

/// One pending event in a [`KernelState`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedEvent<E> {
    /// Scheduled firing time, seconds.
    pub time: f64,
    /// Same-timestamp class ([`EventPayload::priority`] of the payload).
    pub priority: u8,
    /// Schedule sequence number (the [`EventId`]).
    pub seq: u64,
    /// The typed payload.
    pub payload: E,
}

impl<E> QueuedEvent<E> {
    /// The handle the event was scheduled under (what [`Kernel::cancel`]
    /// takes, also after [`Kernel::import`]).
    pub fn id(&self) -> EventId {
        EventId(self.seq)
    }
}

/// Everything a kernel holds between two pops: the clock, the next
/// sequence number, and every live pending event in firing order.
/// Cancelled entries are not part of it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelState<E> {
    /// Simulated time, seconds.
    pub clock: f64,
    /// Sequence number the next scheduled event receives.
    pub next_seq: u64,
    /// Live pending events, in `(time, priority, seq)` order.
    pub events: Vec<QueuedEvent<E>>,
}

/// A deterministic discrete-event kernel.
///
/// Owns the simulation clock (monotone, advanced only by [`Kernel::pop`]
/// and [`Kernel::advance_to`]) and the pending-event queue. All scheduling
/// is at or after the current clock; events fire in `(time, priority, seq)`
/// order.
pub struct Kernel<E> {
    clock: f64,
    next_seq: u64,
    queue: EventQueue<E>,
    ctr_scheduled: Counter,
    ctr_fired: Counter,
    ctr_cancelled: Counter,
    /// Per-event-type fired counters, cached by the payload's static kind.
    fired_by_kind: BTreeMap<&'static str, Counter>,
}

impl<E: EventPayload> Default for Kernel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: EventPayload> Kernel<E> {
    /// Creates an empty kernel at time 0.
    pub fn new() -> Self {
        Kernel {
            clock: 0.0,
            next_seq: 0,
            queue: EventQueue::new(),
            ctr_scheduled: sia_telemetry::counter("events.scheduled"),
            ctr_fired: sia_telemetry::counter("events.fired"),
            ctr_cancelled: sia_telemetry::counter("events.cancelled"),
            fired_by_kind: BTreeMap::new(),
        }
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Schedules `payload` at absolute time `time` (must be finite and not
    /// in the past). Returns a handle usable with [`Kernel::cancel`].
    pub fn schedule_at(&mut self, time: f64, payload: E) -> EventId {
        assert!(
            time >= self.clock,
            "cannot schedule into the past: {} < {}",
            time,
            self.clock
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(time, payload.priority(), seq, payload);
        self.ctr_scheduled.incr();
        EventId(seq)
    }

    /// Schedules `payload` after `delay` seconds (`delay >= 0`).
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventId {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at(self.clock + delay, payload)
    }

    /// Cancels a pending event. Returns `true` when the event had not yet
    /// fired (nor been cancelled before).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let live = self.queue.cancel(id.0);
        if live {
            self.ctr_cancelled.incr();
        }
        live
    }

    /// Whether `id` is still pending.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id.0)
    }

    /// Fires the earliest pending event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Event<E>> {
        let (time, seq, payload) = self.queue.pop()?;
        debug_assert!(time >= self.clock, "event queue went backwards");
        self.clock = time;
        self.ctr_fired.incr();
        self.fired_by_kind
            .entry(payload.kind())
            .or_insert_with_key(|kind| sia_telemetry::counter(&format!("events.fired.{kind}")))
            .incr();
        Some(Event {
            id: EventId(seq),
            time,
            payload,
        })
    }

    /// Moves the clock forward to `time` without firing anything (a no-op
    /// when `time` is not ahead of the clock). Every pending event must lie
    /// at or after `time`.
    pub fn advance_to(&mut self, time: f64) {
        if time > self.clock {
            debug_assert!(
                self.queue.peek_time().is_none_or(|t| t >= time),
                "advance_to({time}) would skip a pending event"
            );
            self.clock = time;
        }
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The kernel's complete pending state (for snapshots).
    pub fn export(&self) -> KernelState<E>
    where
        E: Clone,
    {
        KernelState {
            clock: self.clock,
            next_seq: self.next_seq,
            events: self
                .queue
                .live()
                .into_iter()
                .map(|(time, priority, seq, payload)| QueuedEvent {
                    time,
                    priority,
                    seq,
                    payload: payload.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a kernel from an [`Kernel::export`]ed state; it fires the
    /// same events in the same order the exporting kernel would have.
    /// Refuses a non-finite or negative clock, an event time that is not
    /// finite or lies before the clock, a priority that disagrees with its
    /// payload, and a sequence number that repeats or is not below
    /// `next_seq`.
    pub fn import(state: KernelState<E>) -> Result<Self, String> {
        if !state.clock.is_finite() || state.clock < 0.0 {
            return Err(format!("kernel clock {} is not valid", state.clock));
        }
        let mut kernel = Kernel::new();
        kernel.clock = state.clock;
        kernel.next_seq = state.next_seq;
        let mut seen = HashSet::new();
        for e in state.events {
            if !e.time.is_finite() || e.time < state.clock {
                return Err(format!(
                    "event {} at time {} is not finite or lies before the clock {}",
                    e.seq, e.time, state.clock
                ));
            }
            if e.priority != e.payload.priority() {
                return Err(format!(
                    "event {} has priority {}, its {} payload has {}",
                    e.seq,
                    e.priority,
                    e.payload.kind(),
                    e.payload.priority()
                ));
            }
            if e.seq >= state.next_seq || !seen.insert(e.seq) {
                return Err(format!("event sequence number {} is invalid", e.seq));
            }
            kernel.queue.push(e.time, e.priority, e.seq, e.payload);
        }
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Timer,
        Work(u32),
    }

    impl EventPayload for Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Timer => "timer",
                Ev::Work(_) => "work",
            }
        }

        fn priority(&self) -> u8 {
            match self {
                Ev::Work(_) => 0,
                Ev::Timer => 1,
            }
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut k = Kernel::new();
        k.schedule_at(10.0, Ev::Work(1));
        k.schedule_at(5.0, Ev::Work(2));
        assert_eq!(k.now(), 0.0);
        let e = k.pop().unwrap();
        assert_eq!((e.time, e.payload), (5.0, Ev::Work(2)));
        assert_eq!(k.now(), 5.0);
        k.schedule_in(1.0, Ev::Work(3));
        let e = k.pop().unwrap();
        assert_eq!((e.time, e.payload), (6.0, Ev::Work(3)));
        let e = k.pop().unwrap();
        assert_eq!((e.time, e.payload), (10.0, Ev::Work(1)));
        assert!(k.pop().is_none());
        assert_eq!(k.now(), 10.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut k = Kernel::new();
        k.schedule_at(10.0, Ev::Timer);
        k.pop();
        k.schedule_at(9.0, Ev::Timer);
    }

    #[test]
    fn same_time_orders_by_priority_then_fifo() {
        let mut k = Kernel::new();
        k.schedule_at(1.0, Ev::Timer); // priority 1, seq 0
        k.schedule_at(1.0, Ev::Work(1)); // priority 0, seq 1
        k.schedule_at(1.0, Ev::Work(2)); // priority 0, seq 2
        assert_eq!(k.pop().unwrap().payload, Ev::Work(1));
        assert_eq!(k.pop().unwrap().payload, Ev::Work(2));
        assert_eq!(k.pop().unwrap().payload, Ev::Timer);
    }

    #[test]
    fn timer_cancel_and_reschedule() {
        let mut k = Kernel::new();
        let t1 = k.schedule_at(60.0, Ev::Timer);
        assert!(k.is_pending(t1));
        // Reschedule: cancel the pending timer, schedule a new one.
        assert!(k.cancel(t1));
        assert!(!k.is_pending(t1));
        assert!(!k.cancel(t1), "cancelling twice reports not-pending");
        let t2 = k.schedule_at(30.0, Ev::Timer);
        k.schedule_at(45.0, Ev::Work(9));
        let e = k.pop().unwrap();
        assert_eq!((e.id, e.time), (t2, 30.0));
        assert_eq!(k.pop().unwrap().payload, Ev::Work(9));
        assert!(k.pop().is_none(), "cancelled timer must never fire");
        // A fired event can no longer be cancelled.
        assert!(!k.cancel(t2));
    }

    #[test]
    fn telemetry_counts_per_kind() {
        let before_work = sia_telemetry::counter_value("events.fired.work");
        let before_all = sia_telemetry::counter_value("events.fired");
        let mut k = Kernel::new();
        k.schedule_at(1.0, Ev::Work(1));
        k.schedule_at(2.0, Ev::Timer);
        let cancelled = k.schedule_at(3.0, Ev::Work(2));
        k.cancel(cancelled);
        while k.pop().is_some() {}
        assert_eq!(
            sia_telemetry::counter_value("events.fired.work"),
            before_work + 1
        );
        assert!(sia_telemetry::counter_value("events.fired") >= before_all + 2);
        assert!(sia_telemetry::counter_value("events.cancelled") >= 1);
    }

    #[test]
    fn export_import_preserves_pop_order_and_drops_cancelled() {
        let mut k = Kernel::new();
        k.schedule_at(5.0, Ev::Work(1));
        k.schedule_at(2.0, Ev::Timer);
        let gone = k.schedule_at(2.0, Ev::Work(2));
        k.schedule_at(2.0, Ev::Work(3));
        k.schedule_at(9.0, Ev::Work(4));
        k.cancel(gone);
        assert_eq!(k.pop().unwrap().payload, Ev::Work(3));
        let state = k.export();
        assert_eq!(state.clock, 2.0);
        assert_eq!(state.next_seq, 5);
        let order: Vec<(f64, u8, u64)> = state
            .events
            .iter()
            .map(|e| (e.time, e.priority, e.seq))
            .collect();
        assert_eq!(order, vec![(2.0, 1, 1), (5.0, 0, 0), (9.0, 0, 4)]);

        let mut restored = Kernel::import(state.clone()).unwrap();
        assert_eq!(restored.now(), 2.0);
        let next = restored.schedule_at(9.0, Ev::Work(5));
        assert_eq!(next, EventId(5), "sequence numbers continue");
        let mut fired = Vec::new();
        while let Some(e) = restored.pop() {
            fired.push((e.time, e.payload));
        }
        assert_eq!(
            fired,
            vec![
                (2.0, Ev::Timer),
                (5.0, Ev::Work(1)),
                (9.0, Ev::Work(4)),
                (9.0, Ev::Work(5)),
            ]
        );

        let mut bad = state.clone();
        bad.events[0].time = 1.0;
        assert!(Kernel::import(bad).is_err(), "event before the clock");
        let mut bad = state.clone();
        bad.events[0].time = f64::NAN;
        assert!(Kernel::import(bad).is_err(), "non-finite event time");
        let mut bad = state.clone();
        bad.events[0].priority = 0;
        assert!(Kernel::import(bad).is_err(), "priority mismatch");
        let mut bad = state;
        bad.events[1].seq = bad.events[0].seq;
        assert!(Kernel::import(bad).is_err(), "duplicate sequence number");
    }

    #[test]
    fn advance_to_moves_the_clock_forward_only() {
        let mut k = Kernel::new();
        k.schedule_at(10.0, Ev::Timer);
        k.advance_to(4.0);
        assert_eq!(k.now(), 4.0);
        k.advance_to(1.0);
        assert_eq!(k.now(), 4.0);
        assert_eq!(k.pop().unwrap().time, 10.0);
    }
}
