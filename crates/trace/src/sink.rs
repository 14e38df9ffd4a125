//! The event sink: where the simulator's event stream goes.

use crate::event::TraceEvent;

/// A consumer of simulator events.
///
/// The simulator's run loop is generic over the sink, so the dispatch is
/// static. Implementors that do nothing (like [`NullSink`]) compile away
/// entirely: the emitting code checks [`EventSink::enabled`] before even
/// constructing an event, and the check monomorphizes to a constant.
pub trait EventSink {
    /// Receives one event. Cycles are monotone non-decreasing across
    /// calls within a run.
    fn event(&mut self, ev: &TraceEvent);

    /// `false` promises that [`EventSink::event`] ignores its input, so
    /// emitters may skip constructing events altogether. Defaults to
    /// `true`.
    #[inline(always)]
    fn enabled(&self) -> bool {
        true
    }
}

/// The no-op sink: tracing off. All emission code paths monomorphized
/// with this sink are removed by the optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn event(&mut self, _: &TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Recording sink: every event, in order. Consumers replay the buffer
/// into profilers, exporters, timelines, or the CPU log
/// ([`TraceEvent::cpu_log_line`]).
impl EventSink for Vec<TraceEvent> {
    fn event(&mut self, ev: &TraceEvent) {
        self.push(*ev);
    }
}

/// Feeds a recorded stream to a consumer, in order.
pub fn replay<S: EventSink>(events: &[TraceEvent], sink: &mut S) {
    for ev in events {
        sink.event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use mt_isa::FReg;

    #[test]
    fn vec_sink_records_in_order() {
        let evs = [
            TraceEvent {
                cycle: 0,
                kind: EventKind::LoadRetire { dest: FReg::new(1) },
            },
            TraceEvent {
                cycle: 2,
                kind: EventKind::LoadRetire { dest: FReg::new(2) },
            },
        ];
        let mut buf: Vec<TraceEvent> = Vec::new();
        replay(&evs, &mut buf);
        assert_eq!(buf, evs);
        assert!(buf.enabled());
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
    }
}
