//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load directly).
//!
//! The export uses the JSON-object envelope with complete (`"ph":"X"`)
//! events plus metadata events naming processes and threads. Reference:
//! the Trace Event Format document; the subset emitted here is the
//! stable core every viewer supports.

use std::fmt::Write as _;

use crate::json::write_escaped;
use crate::recorder::SpanEvent;

/// One complete (`ph: "X"`) trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event name (the label rendered on the slice).
    pub name: String,
    /// Category (comma-separated tags in the viewer's filter).
    pub cat: String,
    /// Process id — a *logical* track group (e.g. "PE array").
    pub pid: u32,
    /// Thread id — a row inside the process track.
    pub tid: u32,
    /// Start timestamp in microseconds.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Extra key/value detail shown in the viewer's args pane.
    pub args: Vec<(String, String)>,
}

/// Builder for one trace file.
///
/// # Examples
///
/// ```
/// use paraconv_obs::{ChromeEvent, ChromeTrace};
///
/// let mut trace = ChromeTrace::new();
/// trace.name_process(1, "PE array");
/// trace.name_thread(1, 0, "PE0");
/// trace.push(ChromeEvent {
///     name: "conv1".into(),
///     cat: "task".into(),
///     pid: 1,
///     tid: 0,
///     ts_us: 0,
///     dur_us: 4,
///     args: vec![("iteration".into(), "1".into())],
/// });
/// let json = trace.to_json();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
    process_names: Vec<(u32, String)>,
    thread_names: Vec<(u32, u32, String)>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Labels a process track group.
    pub fn name_process(&mut self, pid: u32, name: &str) {
        self.process_names.push((pid, name.to_owned()));
    }

    /// Labels a thread row inside a process.
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.thread_names.push((pid, tid, name.to_owned()));
    }

    /// Appends one complete event.
    pub fn push(&mut self, event: ChromeEvent) {
        self.events.push(event);
    }

    /// Appends recorded phase spans under process `pid`, one row per
    /// recording thread.
    pub fn push_spans(&mut self, pid: u32, spans: &[SpanEvent]) {
        for s in spans {
            self.events.push(ChromeEvent {
                name: s.name.clone(),
                cat: s.cat.to_owned(),
                pid,
                tid: s.tid,
                ts_us: s.ts_us,
                dur_us: s.dur_us,
                args: Vec::new(),
            });
        }
    }

    /// Number of complete events queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no complete events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as a Chrome trace-event JSON object.
    ///
    /// Events are sorted by `(pid, tid, ts, name)` so the output is
    /// deterministic for a given event set regardless of the order
    /// worker threads delivered them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut events = self.events.clone();
        events.sort_by(|a, b| {
            (a.pid, a.tid, a.ts_us, &a.name).cmp(&(b.pid, b.tid, b.ts_us, &b.name))
        });

        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for (pid, name) in &self.process_names {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
            ));
            write_escaped(&mut out, name);
            out.push_str("}}");
        }
        for (pid, tid, name) in &self.thread_names {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
            ));
            write_escaped(&mut out, name);
            out.push_str("}}");
        }
        for e in &events {
            sep(&mut out);
            out.push('{');
            out.push_str("\"name\":");
            write_escaped(&mut out, &e.name);
            out.push_str(",\"cat\":");
            write_escaped(&mut out, if e.cat.is_empty() { "default" } else { &e.cat });
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}",
                e.pid, e.tid, e.ts_us, e.dur_us
            );
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(&mut out, k);
                    out.push(':');
                    write_escaped(&mut out, v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Validates a Chrome trace-event JSON export ([`ChromeTrace::to_json`]):
/// a non-empty `traceEvents` array of objects whose `ph` is `X` or `M`,
/// with integer `pid`/`tid` and a string `name`. Returns the number of
/// events.
///
/// # Errors
///
/// The first offending event as `event <i>: <reason>`, or what is
/// wrong with the document around the events.
pub fn check_trace(text: &str) -> Result<usize, String> {
    let root = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let events = root
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .ok_or("missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("trace has no events".into());
    }
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph != "X" && ph != "M" {
            return Err(format!("event {i}: unexpected phase `{ph}`"));
        }
        for field in ["pid", "tid"] {
            if e.get(field).and_then(serde_json::Value::as_u64).is_none() {
                return Err(format!("event {i}: missing integer `{field}`"));
            }
        }
        if e.get("name").and_then(serde_json::Value::as_str).is_none() {
            return Err(format!("event {i}: missing string `name`"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(pid: u32, tid: u32, ts: u64, name: &str) -> ChromeEvent {
        ChromeEvent {
            name: name.to_owned(),
            cat: "test".to_owned(),
            pid,
            tid,
            ts_us: ts,
            dur_us: 1,
            args: Vec::new(),
        }
    }

    #[test]
    fn trace_checker_accepts_exports_and_rejects_garbage() {
        let mut trace = ChromeTrace::new();
        trace.name_process(0, "pipeline");
        trace.push(event(0, 1, 5, "span"));
        assert_eq!(check_trace(&trace.to_json()), Ok(2));
        for bad in [
            "not json",
            "{\"type\":\"counter\",\"name\":\"x\"}",
            "{\"traceEvents\":[]}",
            "{\"traceEvents\":[{\"pid\":0,\"tid\":0,\"name\":\"a\"}]}",
            "{\"traceEvents\":[{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"name\":\"a\"}]}",
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":\"0\",\"tid\":0,\"name\":\"a\"}]}",
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"name\":\"a\"}]}",
            "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":0,\"tid\":0}]}",
        ] {
            assert!(check_trace(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let mut a = ChromeTrace::new();
        a.push(event(1, 1, 5, "late"));
        a.push(event(1, 0, 2, "early"));
        let mut b = ChromeTrace::new();
        b.push(event(1, 0, 2, "early"));
        b.push(event(1, 1, 5, "late"));
        assert_eq!(a.to_json(), b.to_json());
        let json = a.to_json();
        assert!(json.find("early").unwrap() < json.find("late").unwrap());
    }

    #[test]
    fn metadata_events_are_emitted() {
        let mut t = ChromeTrace::new();
        t.name_process(2, "transfers");
        t.name_thread(2, 3, "PE3");
        t.push(event(2, 3, 0, "xfer"));
        let json = t.to_json();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn spans_become_events() {
        let spans = vec![SpanEvent {
            name: "sched.kernel".into(),
            cat: "sched",
            tid: 7,
            ts_us: 10,
            dur_us: 5,
        }];
        let mut t = ChromeTrace::new();
        t.push_spans(0, &spans);
        assert_eq!(t.len(), 1);
        let json = t.to_json();
        assert!(json.contains("\"sched.kernel\""));
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("\"dur\":5"));
    }

    #[test]
    fn hostile_names_round_trip_through_the_shared_escaper() {
        let mut t = ChromeTrace::new();
        t.name_process(1, "PE \"array\" \\ 阵列");
        t.name_thread(1, 0, "PE0\nretimed µops");
        t.push(ChromeEvent {
            name: "conv\\1 \"3×3\" …latência".into(),
            cat: "tâche\tspéciale".into(),
            pid: 1,
            tid: 0,
            ts_us: 0,
            dur_us: 2,
            args: vec![("clé \"spéciale\"".into(), "valeur\\finale".into())],
        });
        let json = t.to_json();
        // The full document must parse with the vendored serde_json —
        // the same parser CI runs over emitted traces.
        let doc = serde_json::from_str(&json).expect("trace JSON parses");
        let names: Vec<String> = match &doc {
            serde_json::Value::Object(map) => match map.get("traceEvents") {
                Some(serde_json::Value::Array(events)) => events
                    .iter()
                    .filter_map(|e| match e {
                        serde_json::Value::Object(o) => match o.get("name") {
                            Some(serde_json::Value::String(s)) => Some(s.clone()),
                            _ => None,
                        },
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            },
            _ => Vec::new(),
        };
        assert!(names.iter().any(|n| n == "conv\\1 \"3×3\" …latência"));
        assert!(json.contains("\\\\ 阵列"));
        assert!(json.contains("PE0\\nretimed µops"));
    }

    #[test]
    fn args_and_escaping() {
        let mut t = ChromeTrace::new();
        t.push(ChromeEvent {
            name: "exec \"a\"".into(),
            cat: String::new(),
            pid: 1,
            tid: 0,
            ts_us: 0,
            dur_us: 2,
            args: vec![("edge".into(), "e0".into())],
        });
        let json = t.to_json();
        assert!(json.contains("\\\"a\\\""));
        assert!(json.contains("\"args\":{\"edge\":\"e0\"}"));
        assert!(json.contains("\"cat\":\"default\""));
    }
}
