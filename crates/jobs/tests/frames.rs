//! The worker wire under hostile input: arbitrary bytes, and real job
//! and outcome frames truncated, bit-flipped or spliced, through
//! `read_frame` and on into `job_from_json` / `outcome_from_json`. A
//! coordinator reads whatever a dying or stale worker writes, so neither
//! layer may panic or allocate what a length prefix merely claims:
//! every input ends in a frame, a clean EOF or an error.

use std::io::BufReader;
use std::sync::OnceLock;

use hwgc_core::GcConfig;
use hwgc_jobs::{
    job_from_json, job_to_json, outcome_from_json, outcome_to_json, read_frame, simulate,
    write_frame, FromWorker, SimJob, ToWorker,
};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_workloads::{Preset, WorkloadSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn job() -> SimJob {
    SimJob {
        spec: WorkloadSpec::new(Preset::Jlisp, 42),
        cfg: GcConfig {
            n_cores: 2,
            line_split: Some(4),
            mem: MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default())),
            ..GcConfig::default()
        },
    }
}

/// Real wire bytes: a job frame and the done frame answering it.
fn frames() -> &'static [Vec<u8>; 2] {
    static FRAMES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let job = job();
        let outcome = simulate(&job);
        [
            ToWorker::Job { index: 7, job }.to_json(),
            FromWorker::Done { index: 7, outcome }.to_json(),
        ]
        .map(|msg| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &msg).unwrap();
            wire
        })
    })
}

/// A real frame truncated, bit-flipped, shortened by a byte or spliced
/// with a token, up to four times — the length prefix included.
struct Mutated;

impl Strategy for Mutated {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        const SPLICE: &[&str] = &[
            "9",
            "\n",
            "{",
            "}",
            ",",
            "-1",
            "null",
            "\"x\"",
            "99999999999",
        ];
        let frames = frames();
        let mut bytes = frames[(rng.next_u64() % 2) as usize].clone();
        for _ in 0..=rng.next_u64() % 4 {
            let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            match rng.next_u64() % 4 {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << (rng.next_u64() % 8),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {
                    let token = SPLICE[(rng.next_u64() % SPLICE.len() as u64) as usize];
                    bytes.splice(at..at, token.bytes());
                }
            }
        }
        bytes
    }
}

/// Read every frame `wire` holds and decode each as both message kinds,
/// down to the job and the outcome payload.
fn read_all(wire: &[u8]) {
    let mut r = BufReader::new(wire);
    while let Ok(Some(doc)) = read_frame(&mut r) {
        let _ = ToWorker::from_json(&doc);
        let _ = FromWorker::from_json(&doc);
        for payload in [doc.get("job"), doc.get("outcome"), Some(&doc)]
            .into_iter()
            .flatten()
        {
            if let Ok(job) = job_from_json(payload) {
                // Whatever decodes is a whole job: it re-encodes to
                // itself.
                assert_eq!(job_from_json(&job_to_json(&job)), Ok(job));
            }
            if let Ok(outcome) = outcome_from_json(payload) {
                let again = outcome_from_json(&outcome_to_json(&outcome)).unwrap();
                assert_eq!(again.stats.digest(), outcome.stats.digest());
            }
        }
    }
}

#[test]
fn real_frames_decode_to_what_was_sent() {
    let [job_wire, done_wire] = frames();
    let doc = read_frame(&mut BufReader::new(&job_wire[..]))
        .unwrap()
        .expect("a job frame");
    assert_eq!(
        ToWorker::from_json(&doc),
        Ok(ToWorker::Job {
            index: 7,
            job: job()
        })
    );
    let doc = read_frame(&mut BufReader::new(&done_wire[..]))
        .unwrap()
        .expect("a done frame");
    assert!(matches!(
        FromWorker::from_json(&doc),
        Ok(FromWorker::Done { index: 7, .. })
    ));
}

/// The bytes a short JSON body is drawn from.
const BODY: &[u8] = b"{}[]0123456789abcxyz\",:-.";

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn mutated_frames_never_panic(wire in Mutated) {
        read_all(&wire);
    }

    #[test]
    fn arbitrary_bytes_never_panic(wire in prop::collection::vec(0u8..u8::MAX, 0..256)) {
        read_all(&wire);
    }

    #[test]
    fn an_arbitrary_length_line_never_panics(
        len in 0u64..=u64::MAX,
        body in prop::collection::vec(0usize..BODY.len(), 0..64),
    ) {
        let body: String = body.iter().map(|&i| char::from(BODY[i])).collect();
        read_all(format!("{len}\n{body}").as_bytes());
    }
}
