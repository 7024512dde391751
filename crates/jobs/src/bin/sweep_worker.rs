//! The persistent sweep worker process. Spawned by the multi-process
//! coordinator ([`hwgc_jobs::run_jobset`] with `HWGC_WORKERS >= 1`);
//! speaks the length-prefixed JSON frame protocol over stdin/stdout.
//!
//! A worker is deliberately dumb: handshake `Ready`, then loop —
//! receive a job, simulate it, answer `Done` (or `Failed` if the
//! collection cannot be verified). Cache, journal and progress are
//! coordinator state; keeping them out of the worker is what makes
//! in-process and multi-process sweeps byte-identical.
//!
//! `HWGC_WORKER_ABORT_AFTER=k` makes the worker exit abruptly when job
//! `k+1` arrives — the fault injection the resumption tests and the CI
//! kill-and-resume drill use. The coordinator only forwards the
//! variable to worker 0, so a fleet loses one member, not all of them.

use std::io::{BufReader, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};

use hwgc_jobs::protocol::{read_frame, write_frame, FromWorker, ToWorker};
use hwgc_jobs::simulate;

fn main() {
    let stdin = std::io::stdin();
    let mut input = BufReader::new(stdin.lock());
    let stdout = std::io::stdout();
    let mut output = stdout.lock();

    write_frame(&mut output, &FromWorker::Ready.to_json()).expect("handshake");
    let abort_after: Option<usize> = std::env::var("HWGC_WORKER_ABORT_AFTER")
        .ok()
        .and_then(|s| s.trim().parse().ok());

    let mut completed = 0usize;
    loop {
        let frame = match read_frame(&mut input) {
            Ok(Some(f)) => f,
            // Coordinator closed our stdin: treat like a shutdown.
            Ok(None) => break,
            Err(e) => {
                eprintln!("sweep_worker: bad frame: {e}");
                std::process::exit(2);
            }
        };
        match ToWorker::from_json(&frame) {
            Ok(ToWorker::Job { index, job }) => {
                if abort_after == Some(completed) {
                    // Injected mid-set abort: die without a reply, as a
                    // crashed or OOM-killed worker would.
                    std::process::exit(17);
                }
                let reply = match catch_unwind(AssertUnwindSafe(|| simulate(&job))) {
                    Ok(outcome) => FromWorker::Done { index, outcome },
                    Err(panic) => FromWorker::Failed {
                        index,
                        message: panic_message(panic),
                    },
                };
                write_frame(&mut output, &reply.to_json()).expect("reply");
                completed += 1;
            }
            Ok(ToWorker::Shutdown) => break,
            Err(e) => {
                eprintln!("sweep_worker: bad message: {e}");
                std::process::exit(2);
            }
        }
    }
    let _ = output.flush();
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "simulation panicked".to_string()
    }
}
