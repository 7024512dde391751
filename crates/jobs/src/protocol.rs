//! The coordinator ↔ `sweep_worker` wire protocol: length-prefixed JSON
//! frames over the child's stdin/stdout.
//!
//! A frame is the payload's byte length in decimal ASCII, a newline,
//! then exactly that many bytes of compact JSON. The prefix makes the
//! stream self-delimiting without any escaping discipline, and a torn
//! pipe (worker killed mid-frame) surfaces as a short read — an error,
//! never a silently truncated message. The prefix is untrusted input
//! too: a length past 16 MiB is refused before anything is
//! allocated, and a payload is read as it arrives, so a short stream
//! never reserves the length it claims.
//!
//! Coordinator → worker: [`ToWorker::Job`] frames, then one
//! [`ToWorker::Shutdown`]. Worker → coordinator: one
//! [`FromWorker::Ready`] handshake at startup, then one
//! [`FromWorker::Done`] (or [`FromWorker::Failed`]) per job, in the
//! order jobs were received. Workers never see the cache, the journal
//! or the progress reporter — those are coordinator state; a worker
//! only simulates.

use std::io::{BufRead, ErrorKind, Read, Write};

use hwgc_core::GcOutcome;
use hwgc_obs::json::Json;

use crate::cache::{outcome_from_json, outcome_to_json};
use crate::job::{job_from_json, job_to_json, SimJob};

/// The longest frame payload [`read_frame`] accepts, in bytes: far above
/// any job or outcome frame (a few KiB), far below an allocation that
/// could take the reading process down.
const MAX_FRAME_LEN: usize = 16 << 20;

/// The longest length line [`read_frame`] reads: the 20 digits of
/// `u64::MAX` and a newline, with room to spare.
const MAX_LENGTH_LINE: u64 = 32;

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> std::io::Result<()> {
    let text = payload.to_string_compact();
    writeln!(w, "{}", text.len())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read one frame; `Ok(None)` is clean EOF (peer closed between
/// frames), any mid-frame termination is an error. A length prefix that
/// is not a number, or exceeds 16 MiB, is an [`ErrorKind::InvalidData`]
/// error.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<Json>> {
    let mut line = String::new();
    if r.by_ref().take(MAX_LENGTH_LINE).read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let len: usize = line
        .trim()
        .parse()
        .map_err(|_| bad_data(format!("bad frame length {line:?}")))?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut buf = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("frame torn after {} of {len} bytes", buf.len()),
        ));
    }
    let text = String::from_utf8(buf).map_err(|e| bad_data(format!("frame not utf-8: {e}")))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| bad_data(format!("frame not json: {e}")))
}

/// A coordinator → worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Simulate this job and answer with a `Done` frame carrying the
    /// same index.
    Job { index: usize, job: SimJob },
    /// Drain and exit cleanly.
    Shutdown,
}

impl ToWorker {
    pub fn to_json(&self) -> Json {
        match self {
            ToWorker::Job { index, job } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("job".into())),
                ("index".to_string(), Json::Int(*index as i128)),
                ("job".to_string(), job_to_json(job)),
            ]),
            ToWorker::Shutdown => {
                Json::Obj(vec![("kind".to_string(), Json::Str("shutdown".into()))])
            }
        }
    }

    pub fn from_json(j: &Json) -> Result<ToWorker, String> {
        match j.get("kind").and_then(Json::as_str) {
            Some("job") => Ok(ToWorker::Job {
                index: req_index(j)?,
                job: job_from_json(j.get("job").ok_or("missing `job`")?)?,
            }),
            Some("shutdown") => Ok(ToWorker::Shutdown),
            other => Err(format!("bad ToWorker kind {other:?}")),
        }
    }
}

/// A worker → coordinator message.
// One frame in flight per worker; the outcome payload is the message.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// Startup handshake: the worker is alive and reading.
    Ready,
    /// One finished job, with the full outcome payload.
    Done { index: usize, outcome: GcOutcome },
    /// The job raised a simulation/verification failure. The coordinator
    /// aborts the sweep — a worker that cannot verify a collection has
    /// found a collector bug, not a scheduling problem.
    Failed { index: usize, message: String },
}

impl FromWorker {
    pub fn to_json(&self) -> Json {
        match self {
            FromWorker::Ready => Json::Obj(vec![("kind".to_string(), Json::Str("ready".into()))]),
            FromWorker::Done { index, outcome } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("done".into())),
                ("index".to_string(), Json::Int(*index as i128)),
                ("outcome".to_string(), outcome_to_json(outcome)),
            ]),
            FromWorker::Failed { index, message } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("failed".into())),
                ("index".to_string(), Json::Int(*index as i128)),
                ("message".to_string(), Json::Str(message.clone())),
            ]),
        }
    }

    pub fn from_json(j: &Json) -> Result<FromWorker, String> {
        match j.get("kind").and_then(Json::as_str) {
            Some("ready") => Ok(FromWorker::Ready),
            Some("done") => Ok(FromWorker::Done {
                index: req_index(j)?,
                outcome: outcome_from_json(j.get("outcome").ok_or("missing `outcome`")?)?,
            }),
            Some("failed") => Ok(FromWorker::Failed {
                index: req_index(j)?,
                message: j
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown worker failure")
                    .to_string(),
            }),
            other => Err(format!("bad FromWorker kind {other:?}")),
        }
    }
}

fn req_index(j: &Json) -> Result<usize, String> {
    j.get("index")
        .and_then(Json::as_int)
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| "missing usize field `index`".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwgc_core::GcConfig;
    use hwgc_workloads::{Preset, WorkloadSpec};

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let job = SimJob {
            spec: WorkloadSpec::new(Preset::Jlisp, 42),
            cfg: GcConfig::with_cores(2),
        };
        let msgs = [ToWorker::Job { index: 3, job }, ToWorker::Shutdown];
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, &m.to_json()).unwrap();
        }
        let mut r = std::io::BufReader::new(&wire[..]);
        for m in &msgs {
            let j = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(&ToWorker::from_json(&j).unwrap(), m);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_frames_error_instead_of_truncating() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &ToWorker::Shutdown.to_json()).unwrap();
        wire.truncate(wire.len() - 3); // kill the peer mid-frame
        let mut r = std::io::BufReader::new(&wire[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefixes_are_invalid_data_before_any_allocation() {
        // 20 GB (used to abort in the allocator), `usize::MAX` (used to
        // panic on capacity overflow) and 4 GB (used to allocate the
        // whole length before noticing the stream was two bytes long).
        for wire in [
            "20000000000\n{}",
            "18446744073709551615\n{}",
            "4000000000\n{}",
        ] {
            let mut r = std::io::BufReader::new(wire.as_bytes());
            let err = read_frame(&mut r).expect_err(wire);
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{wire}: {err}");
        }
        // Past `u64::MAX`, and a length line that never ends.
        for wire in [
            "99999999999999999999999\n{}".to_string(),
            "9".repeat(1 << 20),
        ] {
            let mut r = std::io::BufReader::new(wire.as_bytes());
            let err = read_frame(&mut r).expect_err("refused");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        }
        // The limit itself is a length like any other.
        let wire = format!("{MAX_FRAME_LEN}\n{{}}");
        let err = read_frame(&mut std::io::BufReader::new(wire.as_bytes())).expect_err("torn");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    }
}
