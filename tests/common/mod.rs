//! What the root integration suites (`cross_scheduler.rs`,
//! `paper_listings.rs`) share: the one bounded wait.

use std::io::Write;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Runs `case` (one scheduler over one input) on a helper thread and
/// returns what it returns, or fails loudly after 30 s. It ends the
/// process rather than panic: the wedged helper still borrows the
/// scheduler, whose destructor would wait for it. The `FAILED:` line is
/// written to the process's stderr directly, because libtest's capture
/// of `eprintln!` is lost when the process exits under it.
pub fn bounded<T: Send + 'static>(
    scheduler: &str,
    input: &str,
    case: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, finished) = channel();
    let helper = std::thread::spawn(move || {
        let _ = done.send(case());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => {
            helper.join().unwrap();
            value
        }
        Err(RecvTimeoutError::Timeout) => {
            let line = format!("FAILED: {scheduler} did not finish {input} within 30 s\n");
            let _ = std::io::stderr().write_all(line.as_bytes());
            std::process::exit(101)
        }
        // The case panicked before reporting: surface that panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().unwrap_err())
        }
    }
}
