//! Structured per-query trace events and the sinks that receive them.

use parking_lot::Mutex;
use std::fmt::{self, Write as _};
use std::io::Write;

/// One completed `candidates*` call, as seen by the facility that ran it.
///
/// Fields that do not apply to a facility are `None` (e.g. NIX has no
/// signature geometry and reports no page stats of its own; SSF touches no
/// slices). The JSONL rendering of this struct is the stable trace schema
/// documented in DESIGN.md §7. Both labels are `&'static str`, so an
/// event is plain `Copy` data: building, forwarding and buffering one
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTrace {
    /// Facility short name, lowercase (`ssf`, `bssf`, `fssf`, `nix`).
    pub facility: &'static str,
    /// Predicate kind (`HasSubset`, `InSubset`, `Equals`, `Overlaps`,
    /// `Contains`), optionally suffixed with the strategy (`:smart`).
    pub predicate: &'static str,
    /// Query cardinality `D_q`.
    pub d_q: u64,
    /// Signature width `F` in bits, where the facility has one.
    pub f_bits: Option<u32>,
    /// Element signature weight `m`, where the facility has one.
    pub m_weight: Option<u32>,
    /// Bit slices (BSSF) or frames (FSSF) touched by the scan.
    pub slices_touched: Option<u64>,
    /// True when the scan stopped before its slice/page budget because the
    /// candidate accumulator emptied.
    pub early_exit: bool,
    /// Page accesses the serial protocol charges.
    pub logical_pages: Option<u64>,
    /// Candidates (drops) returned by the filter.
    pub candidates: u64,
    /// True when the candidate set is exact (no verification needed).
    pub exact: bool,
    /// False drops eliminated by verification; `None` until a resolution
    /// stage has run (the facility alone cannot know).
    pub false_drops: Option<u64>,
    /// Buffer-pool (LRU) hits during this query, when a pool is attached.
    pub cache_hits: Option<u64>,
    /// Buffer-pool misses during this query, when a pool is attached.
    pub cache_misses: Option<u64>,
    /// Pinned-tier hits during this query, when a pool with a pinned tier
    /// is attached.
    pub cache_pinned_hits: Option<u64>,
    /// Wall-clock latency of the call in nanoseconds.
    pub latency_ns: u64,
}

/// A string rendered as the body of a JSON string literal: minimal
/// escaping of quotes, backslash and control characters.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// An optional measurement rendered as a JSON number or `null`.
struct OrNull(Option<u64>);

impl fmt::Display for OrNull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => f.write_str("null"),
        }
    }
}

impl QueryTrace {
    /// Renders the event as one JSON object (no trailing newline). The
    /// key set is fixed; absent measurements render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        // Formatting into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"facility\":\"{}\",\"predicate\":\"{}\",\"d_q\":{},\
             \"f_bits\":{},\"m_weight\":{},\"slices_touched\":{},\
             \"early_exit\":{},\"logical_pages\":{},\"candidates\":{},\
             \"exact\":{},\"false_drops\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"cache_pinned_hits\":{},\"latency_ns\":{}}}",
            Escaped(self.facility),
            Escaped(self.predicate),
            self.d_q,
            OrNull(self.f_bits.map(u64::from)),
            OrNull(self.m_weight.map(u64::from)),
            OrNull(self.slices_touched),
            self.early_exit,
            OrNull(self.logical_pages),
            self.candidates,
            self.exact,
            OrNull(self.false_drops),
            OrNull(self.cache_hits),
            OrNull(self.cache_misses),
            OrNull(self.cache_pinned_hits),
            self.latency_ns,
        );
        out
    }
}

/// A destination for [`QueryTrace`] events. Implementations must be cheap
/// and infallible — a sink failure may not take the query path down.
pub trait TraceSink: Send + Sync {
    /// Receives one completed query event.
    fn record(&self, ev: &QueryTrace);
}

/// A bounded in-memory ring of the most recent events. All `cap` slots
/// are reserved at construction; once full, each event overwrites the
/// oldest in place, so recording never allocates or drops.
pub struct RingSink {
    // LOCK-ORDER: obs.trace_ring leaf
    ring: Mutex<Ring>,
    cap: usize,
}

/// The ring's slots: filled in arrival order up to `cap`, then
/// overwritten starting from the oldest. `next` is the slot the next
/// event goes to — the oldest event once the ring is full.
struct Ring {
    slots: Vec<QueryTrace>,
    next: usize,
}

impl Ring {
    /// The buffered events, oldest first.
    fn ordered(&self) -> Vec<QueryTrace> {
        let (newer, older) = self.slots.split_at(self.next);
        older.iter().chain(newer).copied().collect()
    }
}

impl RingSink {
    /// A ring keeping the most recent `cap` events (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RingSink {
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(cap),
                next: 0,
            }),
            cap,
        }
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        self.ring.lock().ordered()
    }

    /// Copies out and clears the buffered events, oldest first.
    pub fn drain(&self) -> Vec<QueryTrace> {
        let mut ring = self.ring.lock();
        let events = ring.ordered();
        ring.slots.clear();
        ring.next = 0;
        events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.lock().slots.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().slots.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: &QueryTrace) {
        let mut ring = self.ring.lock();
        let next = ring.next;
        if ring.slots.len() < self.cap {
            ring.slots.push(*ev);
        } else {
            ring.slots[next] = *ev;
        }
        ring.next = (next + 1) % self.cap;
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RingSink {{ cap: {}, len: {} }}", self.cap, self.len())
    }
}

/// Writes one JSON object per event to any `Write` (a file, a `Vec<u8>`
/// for tests). Write errors are swallowed: tracing must never fail the
/// query.
pub struct JsonlSink {
    // The mutex IS this sink's serialization point: `flush` necessarily
    // flushes the writer under it (allowlisted in locks.allow).
    // LOCK-ORDER: obs.trace_jsonl leaf
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// A sink writing JSONL to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, ev: &QueryTrace) {
        let mut line = ev.to_json();
        line.push('\n');
        let _ = self.out.lock().write_all(line.as_bytes());
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JsonlSink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(tag: &'static str) -> QueryTrace {
        QueryTrace {
            facility: tag,
            predicate: "InSubset",
            d_q: 30,
            f_bits: Some(500),
            m_weight: Some(2),
            slices_touched: None,
            early_exit: true,
            logical_pages: Some(41),
            candidates: 7,
            exact: false,
            false_drops: None,
            cache_hits: None,
            cache_misses: None,
            cache_pinned_hits: None,
            latency_ns: 5150,
        }
    }

    #[test]
    fn json_schema_is_stable() {
        let json = ev("bssf").to_json();
        assert_eq!(
            json,
            "{\"facility\":\"bssf\",\"predicate\":\"InSubset\",\"d_q\":30,\
             \"f_bits\":500,\"m_weight\":2,\"slices_touched\":null,\
             \"early_exit\":true,\"logical_pages\":41,\
             \"candidates\":7,\"exact\":false,\"false_drops\":null,\
             \"cache_hits\":null,\"cache_misses\":null,\
             \"cache_pinned_hits\":null,\"latency_ns\":5150}"
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut e = ev("x");
        e.predicate = "a\"b\\c\nd";
        let json = e.to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn ring_sink_drops_oldest_beyond_capacity() {
        let ring = RingSink::new(3);
        let tags = ["f0", "f1", "f2", "f3", "f4", "f5", "f6"];
        for tag in &tags[..5] {
            ring.record(&ev(tag));
        }
        let facilities =
            |events: Vec<QueryTrace>| -> Vec<&str> { events.iter().map(|e| e.facility).collect() };
        assert_eq!(facilities(ring.snapshot()), ["f2", "f3", "f4"]);
        assert_eq!(facilities(ring.drain()), ["f2", "f3", "f4"]);
        assert!(ring.is_empty());
        // Refilled after a drain: the ring starts over from its first slot.
        for tag in &tags[5..] {
            ring.record(&ev(tag));
        }
        assert_eq!(facilities(ring.snapshot()), ["f5", "f6"]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        // Shared byte buffer so the written output is observable.
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.record(&ev("a"));
        sink.record(&ev("b"));
        sink.flush();
        let text = String::from_utf8(buf.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"facility\":\"a\""));
        assert!(lines[1].ends_with("}"));
    }
}
