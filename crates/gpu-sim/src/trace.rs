//! Execution tracing: per-block event timelines for soft-synchronized
//! kernels.
//!
//! A [`Tracer`] attached with [`Gpu::with_tracer`](crate::launch::Gpu::with_tracer)
//! records block start/end and every flag wait/publish of the handle's
//! launches with host timestamps. [`Tracer::render_timeline`] draws a text Gantt chart — in
//! concurrent mode this makes the SKSS-LB wavefront (blocks briefly
//! stalling on predecessors' flags, then streaming) directly visible, and
//! it is the tool that was used to sanity-check the look-back's
//! short-circuit behaviour.

use std::sync::Mutex;
use std::time::Instant;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A block began executing.
    BlockStart,
    /// A block finished.
    BlockEnd,
    /// A wait on `flag[slot] >= min` completed, observing `seen`.
    FlagWaited {
        /// Flag index.
        slot: usize,
        /// Observed value.
        seen: u8,
    },
    /// `flag[slot]` was published with `value`.
    FlagPublished {
        /// Flag index.
        slot: usize,
        /// Published value.
        value: u8,
    },
}

/// One trace record.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Logical block index (CUDA `blockIdx.x`).
    pub block: usize,
    /// Nanoseconds since the tracer's epoch.
    pub nanos: u64,
    /// Event payload.
    pub kind: EventKind,
}

/// Collects events from all blocks of one (or more) launches.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; the epoch is now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), events: Mutex::new(Vec::new()) }
    }

    /// Record an event for `block`.
    pub fn record(&self, block: usize, kind: EventKind) {
        let nanos = self.epoch.elapsed().as_nanos() as u64;
        self.events.lock().unwrap().push(Event { block, nanos, kind });
    }

    /// All events so far, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().unwrap().is_empty()
    }

    /// Discard all events (the epoch is kept).
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }

    /// Per-block `(start, end)` nanoseconds, indexed by block id.
    pub fn spans(&self) -> Vec<(usize, u64, u64)> {
        let events = self.events.lock().unwrap();
        let mut spans: Vec<(usize, u64, u64)> = Vec::new();
        for e in events.iter() {
            match e.kind {
                EventKind::BlockStart => spans.push((e.block, e.nanos, e.nanos)),
                EventKind::BlockEnd => {
                    if let Some(s) = spans.iter_mut().rev().find(|s| s.0 == e.block) {
                        s.2 = e.nanos;
                    }
                }
                _ => {}
            }
        }
        spans.sort_by_key(|s| s.1);
        spans
    }

    /// A text Gantt chart: one row per block, `#` while running, with the
    /// time axis scaled into `width` columns.
    pub fn render_timeline(&self, width: usize) -> String {
        let spans = self.spans();
        if spans.is_empty() {
            return "(no events)\n".to_string();
        }
        let t0 = spans.iter().map(|s| s.1).min().unwrap();
        let t1 = spans.iter().map(|s| s.2).max().unwrap().max(t0 + 1);
        let scale = |t: u64| ((t - t0) as u128 * (width as u128 - 1) / (t1 - t0) as u128) as usize;
        let mut out = String::new();
        out.push_str(&format!("timeline: {} blocks over {:.1} us\n", spans.len(), (t1 - t0) as f64 / 1e3));
        for (block, start, end) in &spans {
            let a = scale(*start);
            let b = scale(*end).max(a);
            let mut row = vec![b' '; width];
            for cell in row.iter_mut().take(b + 1).skip(a) {
                *cell = b'#';
            }
            out.push_str(&format!("block {block:4} |{}|\n", String::from_utf8(row).unwrap()));
        }
        out
    }

    /// Summary counts per event kind.
    pub fn summary(&self) -> String {
        let events = self.events.lock().unwrap();
        let starts = events.iter().filter(|e| matches!(e.kind, EventKind::BlockStart)).count();
        let waits = events.iter().filter(|e| matches!(e.kind, EventKind::FlagWaited { .. })).count();
        let pubs = events.iter().filter(|e| matches!(e.kind, EventKind::FlagPublished { .. })).count();
        format!("{starts} blocks, {waits} flag waits, {pubs} flag publishes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::launch::{ExecMode, Gpu, LaunchConfig};
    use crate::sync::{DeviceCounter, StatusBoard};
    use std::sync::Arc;

    #[test]
    fn records_block_spans() {
        let tracer = Arc::new(Tracer::new());
        let gpu = Gpu::new(DeviceConfig::tiny()).with_tracer(Arc::clone(&tracer));
        gpu.launch(LaunchConfig::new("t", 4, 32), |_ctx| {});
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        for (_, start, end) in spans {
            assert!(end >= start);
        }
    }

    #[test]
    fn records_flag_traffic() {
        let tracer = Arc::new(Tracer::new());
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent).with_tracer(Arc::clone(&tracer));
        let counter = DeviceCounter::new();
        let board = StatusBoard::new(8);
        gpu.launch(LaunchConfig::new("t", 8, 32), |ctx| {
            let vid = counter.next(ctx) as usize;
            if vid > 0 {
                board.wait_at_least(ctx, vid - 1, 1);
            }
            board.publish(ctx, vid, 1);
        });
        let events = tracer.events();
        let waits = events.iter().filter(|e| matches!(e.kind, EventKind::FlagWaited { .. })).count();
        let pubs = events.iter().filter(|e| matches!(e.kind, EventKind::FlagPublished { .. })).count();
        assert_eq!(waits, 7);
        assert_eq!(pubs, 8);
        assert!(tracer.summary().contains("8 blocks"));
    }

    #[test]
    fn timeline_renders() {
        let tracer = Arc::new(Tracer::new());
        let gpu = Gpu::new(DeviceConfig::tiny()).with_tracer(Arc::clone(&tracer));
        gpu.launch(LaunchConfig::new("t", 3, 32), |ctx| {
            // Do a little work so spans are non-degenerate.
            let mut x = ctx.block_idx() as u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
        });
        let s = tracer.render_timeline(40);
        assert!(s.contains("block"));
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn clear_resets() {
        let t = Tracer::new();
        t.record(0, EventKind::BlockStart);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.render_timeline(10), "(no events)\n");
    }

    #[test]
    fn untraced_launches_record_nothing() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let tracer = Tracer::new();
        gpu.launch(LaunchConfig::new("t", 4, 32), |ctx| {
            ctx.syncthreads();
        });
        assert!(tracer.is_empty());
    }
}
