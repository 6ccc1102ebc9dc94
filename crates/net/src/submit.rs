//! Wire form of one batch: the `SUBMIT` payload a client sends and the
//! `REPLY` payload the server answers with. Each encoder sits next to its
//! decoder, so client and server share one grammar.
//!
//! ```text
//! SUBMIT  [mode: u8][deadline_ms: u64][n: u32]
//!         n × [session: u64][label: u64][dims: u32] dims × [feature: f64]
//! REPLY   [n: u32]
//!         n × ( [0][prediction: u64][drift: u8][switched: u8][concept: u64]
//!             | [1][code: u16][a: u64][b: u64] )
//! ```

use std::time::Duration;

use ficsum_core::StepOutcome;
use ficsum_serve::{SessionId, StepError, Submit};

use crate::codec::{PayloadReader, PayloadWriter};
use crate::error::{decode_step_error, encode_step_error, NetError, ProtocolError};
use crate::wire::kind;

/// Client-side view of one processed observation.
///
/// Mirrors [`ficsum_core::StepOutcome`] field-for-field. It is a distinct
/// type because `StepOutcome` is constructed only by the framework (its
/// values *prove* a pipeline step happened); a remote outcome instead
/// attests what the server's pipeline reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RemoteOutcome {
    /// Prequential prediction made before training on the observation.
    pub prediction: usize,
    /// Whether a concept drift was detected at this observation.
    pub drift: bool,
    /// Whether model selection switched the active concept.
    pub concept_switched: bool,
    /// Concept active after this observation.
    pub active_concept: u64,
}

impl RemoteOutcome {
    /// The wire view of a step the server's pipeline took.
    pub(crate) fn of(outcome: &StepOutcome) -> Self {
        Self {
            prediction: outcome.prediction,
            drift: outcome.drift,
            concept_switched: outcome.concept_switched,
            active_concept: outcome.active_concept as u64,
        }
    }
}

/// What one reply slot resolves to on the client: the remote step's
/// outcome, or the serving core's reason it could not produce one.
pub type RemoteStepResult = Result<RemoteOutcome, StepError>;

/// A decoded `SUBMIT` payload.
#[derive(Debug)]
pub(crate) struct SubmitBatch {
    /// [`crate::wire::submit_mode`] byte.
    pub mode: u8,
    /// Admission budget for `DEADLINE` mode; ignored for `TRY`.
    pub deadline_ms: u64,
    pub requests: Vec<Submit>,
}

/// The `SUBMIT` deadline field for `deadline`: whole milliseconds rounded
/// up, so a sub-millisecond deadline still waits rather than arriving as 0,
/// and saturating at `u64::MAX`.
pub(crate) fn deadline_millis(deadline: Duration) -> u64 {
    u64::try_from(deadline.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX)
}

/// Encodes a `SUBMIT` payload.
pub(crate) fn encode_submit(mode: u8, deadline_ms: u64, batch: &[Submit]) -> Vec<u8> {
    let mut payload = PayloadWriter::new();
    payload.u8(mode).u64(deadline_ms).u32(batch.len() as u32);
    for submit in batch {
        payload.u64(submit.session_id.0).u64(submit.label as u64).u32(submit.features.len() as u32);
        for &feature in &submit.features {
            payload.f64(feature);
        }
    }
    payload.finish()
}

/// Decodes a `SUBMIT` payload. Each count is capped by the bytes the
/// payload holds before allocating (a request takes at least 20, a feature
/// 8), so a lying length prefix fails on its first missing byte instead.
pub(crate) fn decode_submit(payload: &[u8]) -> Result<SubmitBatch, NetError> {
    let mut r = PayloadReader::new(kind::SUBMIT, payload);
    let mode = r.u8()?;
    let deadline_ms = r.u64()?;
    let n = r.u32()? as usize;
    let mut requests = Vec::with_capacity(n.min(payload.len() / 20));
    for _ in 0..n {
        let session = SessionId(r.u64()?);
        let label = r.u64()? as usize;
        let dims = r.u32()? as usize;
        let mut features = Vec::with_capacity(dims.min(payload.len() / 8));
        for _ in 0..dims {
            features.push(r.f64()?);
        }
        requests.push(Submit::new(session, features, label));
    }
    r.expect_end()?;
    Ok(SubmitBatch { mode, deadline_ms, requests })
}

/// Encodes a `REPLY` payload, one slot per request in submission order.
pub(crate) fn encode_reply(results: &[RemoteStepResult]) -> Vec<u8> {
    let mut payload = PayloadWriter::new();
    payload.u32(results.len() as u32);
    for result in results {
        match result {
            Ok(outcome) => {
                payload
                    .u8(0)
                    .u64(outcome.prediction as u64)
                    .u8(outcome.drift as u8)
                    .u8(outcome.concept_switched as u8)
                    .u64(outcome.active_concept);
            }
            Err(step) => {
                let (code, a, b) = encode_step_error(step);
                payload.u8(1).u16(code).u64(a).u64(b);
            }
        }
    }
    payload.finish()
}

/// Decodes a `REPLY` payload. An unknown slot tag or step-error code is a
/// malformed frame.
pub(crate) fn decode_reply(payload: &[u8]) -> Result<Vec<RemoteStepResult>, NetError> {
    let malformed = || NetError::from(ProtocolError::MalformedFrame { kind: kind::REPLY });
    let mut r = PayloadReader::new(kind::REPLY, payload);
    let n = r.u32()? as usize;
    let mut results = Vec::with_capacity(n.min(payload.len() / 8));
    for _ in 0..n {
        match r.u8()? {
            0 => {
                let prediction = r.u64()? as usize;
                let drift = r.u8()? != 0;
                let concept_switched = r.u8()? != 0;
                let active_concept = r.u64()?;
                results.push(Ok(RemoteOutcome {
                    prediction,
                    drift,
                    concept_switched,
                    active_concept,
                }));
            }
            1 => {
                let (code, a, b) = (r.u16()?, r.u64()?, r.u64()?);
                results.push(Err(decode_step_error(code, a, b).ok_or_else(malformed)?));
            }
            _ => return Err(malformed()),
        }
    }
    r.expect_end()?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::submit_mode;

    #[test]
    fn submit_payloads_round_trip() {
        let batch = vec![
            Submit::new(SessionId(1), vec![0.25, -1.5], 1),
            Submit::new(SessionId(u64::MAX), vec![f64::MIN_POSITIVE], 0),
        ];
        let decoded = decode_submit(&encode_submit(submit_mode::DEADLINE, 250, &batch)).unwrap();
        assert_eq!(decoded.mode, submit_mode::DEADLINE);
        assert_eq!(decoded.deadline_ms, 250);
        assert_eq!(decoded.requests, batch);
    }

    #[test]
    fn truncated_submit_is_malformed() {
        let batch = vec![Submit::new(SessionId(1), vec![0.5; 4], 0)];
        let payload = encode_submit(submit_mode::TRY, 0, &batch);
        match decode_submit(&payload[..payload.len() - 3]) {
            Err(NetError::Protocol(ProtocolError::MalformedFrame { kind: k })) => {
                assert_eq!(k, kind::SUBMIT);
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
    }

    #[test]
    fn lying_length_prefix_cannot_force_allocation() {
        // Tiny payloads claiming 4 billion requests, or 4 billion features
        // in one request, must fail cleanly on their first missing byte
        // (bounds-checked reads, capacities capped by the payload size),
        // not attempt a proportional allocation.
        let mut lying_count = PayloadWriter::new();
        lying_count.u8(submit_mode::TRY).u64(0).u32(u32::MAX);
        let mut lying_dims = PayloadWriter::new();
        lying_dims.u8(submit_mode::TRY).u64(0).u32(1).u64(1).u64(0).u32(u32::MAX);
        for payload in [lying_count.finish(), lying_dims.finish()] {
            assert!(
                matches!(
                    decode_submit(&payload),
                    Err(NetError::Protocol(ProtocolError::MalformedFrame { kind: kind::SUBMIT }))
                ),
                "{}-byte payload",
                payload.len()
            );
        }
    }

    #[test]
    fn deadlines_round_up_to_whole_milliseconds() {
        assert_eq!(deadline_millis(Duration::ZERO), 0);
        assert_eq!(deadline_millis(Duration::from_nanos(1)), 1);
        assert_eq!(deadline_millis(Duration::from_micros(500)), 1);
        assert_eq!(deadline_millis(Duration::from_millis(20)), 20);
        assert_eq!(deadline_millis(Duration::from_micros(20_001)), 21);
        assert_eq!(deadline_millis(Duration::from_millis(u64::MAX)), u64::MAX);
        assert_eq!(deadline_millis(Duration::MAX), u64::MAX);
    }

    #[test]
    fn reply_slots_round_trip_outcomes_and_every_step_error() {
        let results = vec![
            Ok(RemoteOutcome {
                prediction: 3,
                drift: true,
                concept_switched: false,
                active_concept: 7,
            }),
            Ok(RemoteOutcome {
                prediction: 0,
                drift: false,
                concept_switched: true,
                active_concept: u64::MAX,
            }),
            Err(StepError::SessionPoisoned { session: SessionId(5) }),
            Err(StepError::WorkerFailed { shard: 2 }),
        ];
        assert_eq!(decode_reply(&encode_reply(&results)).unwrap(), results);
    }

    #[test]
    fn reply_with_unknown_slot_tag_is_malformed() {
        let mut payload = PayloadWriter::new();
        payload.u32(1).u8(9);
        assert!(matches!(
            decode_reply(&payload.finish()),
            Err(NetError::Protocol(ProtocolError::MalformedFrame { kind: kind::REPLY }))
        ));
    }
}
