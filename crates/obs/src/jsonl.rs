//! Streaming JSONL sink: one JSON object per signal, one signal per line.
//!
//! ## Schema
//!
//! Every line carries a `"kind"` discriminator:
//!
//! ```text
//! {"kind":"event","t":1200,"event":"drift_detected","trigger":"detector"}
//! {"kind":"event","t":1200,"event":"concept_switch","from":0,"to":1,"similarity":0.91}
//! {"kind":"event","t":1260,"event":"baseline_absorbed","value":0.97,"mean":0.9731,"std_dev":0.012}
//! {"kind":"span","stage":"extract","nanos":18231}
//! ```
//!
//! A span's `"stage"` is a [`Stage::name`]: `classifier`, `extract`,
//! `similarity`, `drift_check` or `repository_reassess`. Event payload
//! fields are flattened into the object. Non-finite floats
//! serialise as `null` (JSON has no NaN). The writer is hand-rolled —
//! this crate takes no dependencies — but emits strict JSON.

use std::io::Write;

use crate::event::{Stage, StreamEvent};
use crate::recorder::Recorder;

/// A minimal JSON scalar for line records.
#[derive(Debug, Clone, Copy)]
pub enum JsonValue<'a> {
    /// A string (will be escaped).
    Str(&'a str),
    /// A float; non-finite values serialise as `null`.
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
}

/// Escapes `s` into `out` as JSON string contents (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn value_into(out: &mut String, v: &JsonValue<'_>) {
    match v {
        JsonValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        JsonValue::Num(n) => {
            if n.is_finite() {
                // `{:?}` round-trips f64 exactly and always includes a
                // decimal point or exponent, which keeps the value a JSON
                // number distinguishable from an integer count.
                out.push_str(&format!("{n:?}"));
            } else {
                out.push_str("null");
            }
        }
        JsonValue::Int(i) => out.push_str(&format!("{i}")),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Formats one `{"k":v,...}` line (without trailing newline) from pairs.
pub fn format_record(fields: &[(&str, JsonValue<'_>)]) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, k);
        out.push_str("\":");
        value_into(&mut out, v);
    }
    out.push('}');
    out
}

/// Writes one JSONL record (with newline) to `w`.
pub fn write_record<W: Write>(w: &mut W, fields: &[(&str, JsonValue<'_>)]) -> std::io::Result<()> {
    writeln!(w, "{}", format_record(fields))
}

/// A [`Recorder`] that streams every signal as one JSON line.
///
/// Write errors are counted (see [`JsonlSink::write_errors`]) rather than
/// panicking: observability must never take down the pipeline.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    write_errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        Self { writer, write_errors: 0 }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }

    /// Number of line writes that failed.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    fn emit(&mut self, fields: &[(&str, JsonValue<'_>)]) {
        if write_record(&mut self.writer, fields).is_err() {
            self.write_errors += 1;
        }
    }
}

/// Sink receiving one flattened JSONL record as `(key, value)` fields.
type RecordSink<'a> = dyn FnMut(&[(&str, JsonValue<'_>)]) + 'a;

/// Flattens an event's payload into JSONL fields and emits the line.
fn event_fields(t: u64, event: &StreamEvent, emit: &mut RecordSink<'_>) {
    let kind = ("kind", JsonValue::Str("event"));
    let ts = ("t", JsonValue::Int(t));
    let name = ("event", JsonValue::Str(event.name()));
    match event {
        StreamEvent::DriftDetected { trigger } => {
            emit(&[kind, ts, name, ("trigger", JsonValue::Str(trigger.name()))]);
        }
        StreamEvent::ConceptSwitch { from, to, similarity } => {
            let sim = match similarity {
                Some(s) => JsonValue::Num(*s),
                None => JsonValue::Num(f64::NAN), // serialises as null
            };
            emit(&[
                kind,
                ts,
                name,
                ("from", JsonValue::Int(*from)),
                ("to", JsonValue::Int(*to)),
                ("similarity", sim),
            ]);
        }
        StreamEvent::FingerprintExtracted { dims } => {
            emit(&[kind, ts, name, ("dims", JsonValue::Int(*dims))]);
        }
        StreamEvent::SimilarityObserved { value } => {
            emit(&[kind, ts, name, ("value", JsonValue::Num(*value))]);
        }
        StreamEvent::BaselineAbsorbed { value, mean, std_dev } => {
            emit(&[
                kind,
                ts,
                name,
                ("value", JsonValue::Num(*value)),
                ("mean", JsonValue::Num(*mean)),
                ("std_dev", JsonValue::Num(*std_dev)),
            ]);
        }
        StreamEvent::WeightsRecomputed { dims, spread } => {
            emit(&[
                kind,
                ts,
                name,
                ("dims", JsonValue::Int(*dims)),
                ("spread", JsonValue::Num(*spread)),
            ]);
        }
        StreamEvent::RepositoryEvicted { id } => {
            emit(&[kind, ts, name, ("id", JsonValue::Int(*id))]);
        }
        StreamEvent::SessionCreated { shard, session }
        | StreamEvent::SessionEvicted { shard, session }
        | StreamEvent::SessionPoisoned { shard, session } => {
            emit(&[
                kind,
                ts,
                name,
                ("shard", JsonValue::Int(*shard)),
                ("session", JsonValue::Int(*session)),
            ]);
        }
        StreamEvent::BatchProcessed { shard, len } => {
            emit(&[
                kind,
                ts,
                name,
                ("shard", JsonValue::Int(*shard)),
                ("len", JsonValue::Int(*len)),
            ]);
        }
        StreamEvent::WorkerRestarted { shard, incarnation, sessions } => {
            emit(&[
                kind,
                ts,
                name,
                ("shard", JsonValue::Int(*shard)),
                ("incarnation", JsonValue::Int(*incarnation)),
                ("sessions", JsonValue::Int(*sessions)),
            ]);
        }
        StreamEvent::SessionRestored { shard, session, steps } => {
            emit(&[
                kind,
                ts,
                name,
                ("shard", JsonValue::Int(*shard)),
                ("session", JsonValue::Int(*session)),
                ("steps", JsonValue::Int(*steps)),
            ]);
        }
        StreamEvent::ConnectionOpened { conn } => {
            emit(&[kind, ts, name, ("conn", JsonValue::Int(*conn))]);
        }
        StreamEvent::ConnectionClosed { conn, batches } => {
            emit(&[
                kind,
                ts,
                name,
                ("conn", JsonValue::Int(*conn)),
                ("batches", JsonValue::Int(*batches)),
            ]);
        }
        StreamEvent::BatchRejected { conn, code } => {
            emit(&[
                kind,
                ts,
                name,
                ("conn", JsonValue::Int(*conn)),
                ("code", JsonValue::Int(*code)),
            ]);
        }
        StreamEvent::PlasticityReset => {
            emit(&[kind, ts, name]);
        }
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn event(&mut self, t: u64, event: StreamEvent) {
        event_fields(t, &event, &mut |fields| self.emit(fields));
    }

    fn span(&mut self, stage: Stage, nanos: u64) {
        self.emit(&[
            ("kind", JsonValue::Str("span")),
            ("stage", JsonValue::Str(stage.name())),
            ("nanos", JsonValue::Int(nanos)),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DriftTrigger;

    fn lines_of(sink: JsonlSink<Vec<u8>>) -> Vec<String> {
        String::from_utf8(sink.into_inner())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn events_flatten_their_payload() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(5, StreamEvent::DriftDetected { trigger: DriftTrigger::HardStreak });
        sink.event(5, StreamEvent::ConceptSwitch { from: 2, to: 0, similarity: Some(0.5) });
        sink.event(9, StreamEvent::ConceptSwitch { from: 0, to: 3, similarity: None });
        sink.event(12, StreamEvent::BaselineAbsorbed { value: 0.5, mean: 0.75, std_dev: 0.25 });
        let lines = lines_of(sink);
        assert_eq!(
            lines[0],
            r#"{"kind":"event","t":5,"event":"drift_detected","trigger":"hard_streak"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"kind":"event","t":5,"event":"concept_switch","from":2,"to":0,"similarity":0.5}"#
        );
        assert_eq!(
            lines[2],
            r#"{"kind":"event","t":9,"event":"concept_switch","from":0,"to":3,"similarity":null}"#
        );
        assert_eq!(
            lines[3],
            r#"{"kind":"event","t":12,"event":"baseline_absorbed","value":0.5,"mean":0.75,"std_dev":0.25}"#
        );
    }

    #[test]
    fn metrics_serialise_with_kind_discriminators() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.span(Stage::DriftCheck, 42);
        let lines = lines_of(sink);
        assert_eq!(lines[0], r#"{"kind":"span","stage":"drift_check","nanos":42}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let s = format_record(&[("k", JsonValue::Str("a\"b\\c\nd"))]);
        assert_eq!(s, r#"{"k":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = format_record(&[("v", JsonValue::Num(f64::INFINITY))]);
        assert_eq!(s, r#"{"v":null}"#);
    }
}
