//! Spans recorded by the traced run around every call into a layer,
//! kept in memory and written out at the end as Perfetto trace-event
//! JSON through `lte_obs`'s event and exporter types.

use std::time::Instant;

use lte_obs::{CoreState, Event, PerfettoExporter, RingRecorder, Stage};

/// The layer tracks of the trace file, in `tid` order.
pub const TRACKS: [&str; 5] = [
    "uplink driver",
    "phy.tx synthesis",
    "phy.rx pooled path",
    "phy.rx traced stages",
    "deploy driver",
];

/// Track of each span kind.
pub const DRIVER: u32 = 0;
pub const TX: u32 = 1;
pub const RX_POOLED: u32 = 2;
pub const RX_TRACED: u32 = 3;
pub const DEPLOY: u32 = 4;

/// One recorded span. Times are nanoseconds from the log's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// The receiver stage, for spans the traced receiver recorded.
    pub stage: Option<Stage>,
    /// Track (layer) the span belongs to.
    pub track: u32,
    /// Start, ns from the epoch.
    pub start_ns: u64,
    /// End, ns from the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Subframe (or deploy campaign) the span worked for; every span of
    /// one subframe carries the same id.
    pub subframe: u32,
}

/// An in-memory span log with one epoch.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        track: u32,
        parent: Option<usize>,
        subframe: u32,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            stage: None,
            track,
            start_ns,
            end_ns: start_ns,
            parent,
            subframe,
        });
        self.spans.len() - 1
    }

    /// Ends span `idx` now and returns its duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        track: u32,
        parent: Option<usize>,
        subframe: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, track, parent, subframe);
        let out = f();
        self.close(idx);
        out
    }

    /// Adopts the stage spans a `StageTimer` recorded into `recorder`
    /// (times relative to `timer_epoch_ns` on this log's clock) as
    /// children of span `parent`.
    pub fn adopt_stages(&mut self, recorder: &RingRecorder, timer_epoch_ns: u64, parent: usize) {
        let subframe = self.spans[parent].subframe;
        for event in recorder.events() {
            if let Event::StageSpan {
                stage,
                start_ns,
                end_ns,
            } = event
            {
                self.spans.push(Span {
                    name: stage.name(),
                    stage: Some(stage),
                    track: RX_TRACED,
                    start_ns: timer_epoch_ns + start_ns,
                    end_ns: timer_epoch_ns + end_ns,
                    parent: Some(parent),
                    subframe,
                });
            }
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The trace-event JSON document. Subframe spans become async
    /// `subframe` slices keyed by the subframe id; every other span is
    /// a complete slice on its layer's track, named after its receiver
    /// stage where it has one, with the subframe id in its arguments.
    pub fn perfetto(&self) -> String {
        let events: Vec<Event> = self
            .spans
            .iter()
            .map(|s| {
                if s.parent.is_none() && s.track == DRIVER {
                    Event::SubframeSpan {
                        subframe: s.subframe,
                        start: s.start_ns,
                        end: s.end_ns,
                    }
                } else {
                    Event::CoreSpan {
                        core: s.track,
                        state: CoreState::Busy,
                        start: s.start_ns,
                        end: s.end_ns,
                        // The pooled tail is the coarse `finish` stage.
                        stage: s
                            .stage
                            .or((s.name == "phy.rx.tail").then_some(Stage::Finish)),
                        subframe: Some(s.subframe),
                    }
                }
            })
            .collect();
        // A 1 GHz "clock" makes the exporter's cycle timebase read as
        // nanoseconds.
        let doc = PerfettoExporter::new(1.0e9).export(&events, 0);
        // Name each layer's track; the exporter only knows core tracks.
        let names: String = TRACKS
            .iter()
            .enumerate()
            .map(|(tid, name)| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},\n"
                )
            })
            .collect();
        let head = "{\"traceEvents\":[\n";
        let body = doc.strip_prefix(head).expect("exporter document header");
        format!("{head}{names}{body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_with_shared_subframe_ids() {
        let mut log = SpanLog::new();
        let sf = log.open("uplink.subframe", DRIVER, None, 7);
        log.span("phy.rx.front", RX_POOLED, Some(sf), 7, || {
            std::hint::black_box(1 + 1)
        });
        log.close(sf);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = log.perfetto();
        assert!(doc.starts_with("{\"traceEvents\":[\n{\"name\":\"thread_name\""));
        assert!(doc.contains("\"ph\":\"b\",\"id\":7"));
        assert!(doc.contains("\"subframe\":7"));
        assert!(doc.trim_end().ends_with("]}"));
    }
}
