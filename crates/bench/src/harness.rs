//! Shared harness utilities: CLI flags, timing, and result output.
//!
//! Every binary accepts:
//!
//! * `--full` — paper-scale parameters (hours on this container); the
//!   default is a scaled-down configuration with the same shape;
//! * `--out <dir>` — where the committed record lives: CSV and report
//!   files land there, and gates read what they compare against from
//!   there (default `results/`);
//! * `--part <name>` — which artifact of `paper` to run, or which panel of
//!   one (`fig7`, `fig7.size`); which phase of `introspect`;
//! * `--threads a,b,c` — override the thread sweep;
//! * `--check` — gate mode (`paper`, `oneshot`, `served`, `serving`,
//!   `soak`, `profile`): assert, and write every file under
//!   [`gate_out`] instead of `--out`, so that a gate run leaves the
//!   record as it found it;
//! * `--reps n` — repetitions per measurement (the median is reported).
//!
//! A gate binary names the further `--key n` flags it reads (`--workers`,
//! `--duration-ms`, ...) to [`Cli::parse_with`]; any other flag is an
//! error, and every number is read through [`Cli::number`].
//!
//! The gates' shared plumbing lives here too: [`http_get`] and
//! [`scrape`] for the introspection endpoints, [`Client`] for a windowed
//! or paced stream of submissions, [`finish_gate`] for the verdict.

use rustflow::{AdmissionError, RunHandle, RunResult};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Run at paper scale.
    pub full: bool,
    /// Panel selector.
    pub part: Option<String>,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Thread sweep override.
    pub threads: Option<Vec<usize>>,
    /// Gate mode: assert against a committed file instead of timing.
    pub check: bool,
    /// The `--key n` flags this binary reads besides `--reps`.
    number_flags: &'static [&'static str],
    /// Those given, in command-line order.
    numbers: Vec<(String, u64)>,
}

/// Where a `--check` run writes: nothing a gate produces is part of the
/// record. `target/tf-bench/` of the workspace, wherever the binary is
/// started from (a test starts it from its package's directory).
pub fn gate_out() -> PathBuf {
    let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2);
    workspace
        .expect("crates/bench is two levels down")
        .join("target/tf-bench")
}

impl Cli {
    /// Parses `std::env::args`.
    pub fn parse() -> Cli {
        Cli::parse_with(&[])
    }

    /// Parses `std::env::args` for a binary that also reads the numeric
    /// flags `number_flags`.
    pub fn parse_with(number_flags: &'static [&'static str]) -> Cli {
        Cli::from_args(std::env::args().skip(1), number_flags)
    }

    /// Parses `args` (the command line without the program's name).
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
        number_flags: &'static [&'static str],
    ) -> Cli {
        let mut cli = Cli {
            full: false,
            part: None,
            out: PathBuf::from("results"),
            threads: None,
            check: false,
            number_flags,
            numbers: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => cli.full = true,
                "--check" => cli.check = true,
                "--part" => cli.part = args.next(),
                "--out" => cli.out = PathBuf::from(args.next().expect("--out needs a directory")),
                "--threads" => {
                    let list = args.next().expect("--threads needs a,b,c");
                    cli.threads = Some(
                        list.split(',')
                            .map(|s| s.trim().parse().expect("bad thread count"))
                            .collect(),
                    );
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --full | --part <name> | --out <dir> | --threads a,b,c | --check | --reps n{}",
                        number_flags.iter().map(|f| format!(" | {f} n")).collect::<String>()
                    );
                    std::process::exit(0);
                }
                flag if cli.reads_number(flag) => {
                    let value = args.next().and_then(|v| v.parse().ok());
                    let value = value.unwrap_or_else(|| panic!("{flag} needs a number"));
                    cli.numbers.push((arg, value));
                }
                other => panic!("unknown flag {other}"),
            }
        }
        cli
    }

    /// `true` when `--part` is absent, equals `name`, or is `name`'s
    /// artifact or one of its panels (`fig7` and `fig7.size` want each
    /// other; `fig7.size` and `fig7.threads` do not).
    pub fn wants_part(&self, name: &str) -> bool {
        let within = |outer: &str, inner: &str| {
            inner
                .strip_prefix(outer)
                .is_some_and(|rest| rest.starts_with('.'))
        };
        self.part
            .as_deref()
            .is_none_or(|p| p == name || within(p, name) || within(name, p))
    }

    /// The thread sweep: override, or the given default.
    pub fn thread_sweep(&self, default: &[usize]) -> Vec<usize> {
        self.threads.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The one thread count of a binary that does not sweep: the first of
    /// `--threads`, or `default`.
    pub fn thread_count(&self, default: usize) -> usize {
        self.threads
            .as_ref()
            .and_then(|t| t.first().copied())
            .unwrap_or(default)
    }

    fn reads_number(&self, flag: &str) -> bool {
        flag == "--reps" || self.number_flags.contains(&flag)
    }

    /// The value of the numeric flag `flag` (`--reps`, or one the binary
    /// named to [`Cli::parse_with`]), or `default` when it was not given.
    pub fn number(&self, flag: &str, default: u64) -> u64 {
        assert!(self.reads_number(flag), "{flag} was not declared");
        let given = self.numbers.iter().rev().find(|(name, _)| name == flag);
        given.map_or(default, |(_, value)| *value)
    }

    /// Writes a file of this run and says where: into the output
    /// directory, or under [`gate_out`] when this is a `--check` run.
    pub fn write_report(&self, file: &str, text: &str) {
        let dir = if self.check {
            gate_out()
        } else {
            self.out.clone()
        };
        std::fs::create_dir_all(&dir).expect("cannot create output directory");
        let path = dir.join(file);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {file}: {e}"));
        println!("  -> {}", path.display());
    }

    /// The committed `file` of the output directory, which a gate compares
    /// its run against.
    pub fn committed(&self, file: &str) -> String {
        let path = self.out.join(file);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("--check needs {}: {e}", path.display()))
    }
}

/// `GET target` against an executor's introspection endpoint; the body of
/// the `200` response (anything else panics: the gates treat a failed
/// scrape as a failed run).
pub fn http_get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect introspection endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("socket timeout");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("malformed response");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "unexpected status for {target}: {}",
        head.lines().next().unwrap_or("")
    );
    body.to_string()
}

/// A thread taking a sample every `period` while a measurement runs.
pub struct Sampler<T> {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<T>>,
}

impl<T: Send + 'static> Sampler<T> {
    /// Starts calling `sample`, then sleeping `period`, over and over.
    pub fn start(period: Duration, mut sample: impl FnMut() -> T + Send + 'static) -> Sampler<T> {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !stopped.load(Ordering::Acquire) {
                samples.push(sample());
                std::thread::sleep(period);
            }
            samples
        });
        Sampler { stop, thread }
    }

    /// Stops the thread; what it sampled.
    pub fn stop(self) -> Vec<T> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("sampler thread panicked")
    }
}

/// Scrapes every target of `targets` from an introspection endpoint each
/// `period`, so that "enabled" means enabled *and observed*: renders and
/// shard merges must be safe (and cheap) while the counters move. One
/// sample per round.
pub fn scrape(addr: SocketAddr, targets: &'static [&'static str], period: Duration) -> Sampler<()> {
    Sampler::start(period, move || {
        for target in targets {
            let _ = http_get(addr, target);
        }
    })
}

/// What became of one offer of a [`Client`].
pub enum Served<T> {
    /// The front door refused the submission.
    Refused(AdmissionError),
    /// The run was admitted and has resolved; the payload its submission
    /// returned comes back with the outcome.
    Resolved(T, RunResult),
}

/// One client of an executor: a stream of submissions with at most
/// `window` of them in flight, optionally paced, each run's outcome
/// reported once, in submission order. The deque is the client's own, so
/// a client driven twice allocates nothing the second time.
pub struct Client<T> {
    window: Option<usize>,
    interval: Option<Duration>,
    inflight: VecDeque<(T, RunHandle)>,
}

impl<T> Client<T> {
    /// A client that waits out its oldest run before offering another
    /// while `window` are in flight (`Some(1)` is synchronous), or with
    /// `None` an open-loop client that never waits for a run: it resolves
    /// the runs that have finished, so what it holds is bounded by what
    /// the executor holds. With `interval` the offers follow an absolute
    /// schedule, one per interval: a client that falls behind submits
    /// back to back until it has caught up, so pacing never thins the
    /// offered load.
    pub fn new(window: Option<usize>, interval: Option<Duration>) -> Client<T> {
        Client {
            window,
            interval,
            inflight: VecDeque::with_capacity(window.unwrap_or(0)),
        }
    }

    /// Offers `submit(i)` for `i` from 0 while `more(i)` holds, then waits
    /// for everything in flight; `outcome` sees every offer exactly once.
    /// Returns how many offers were made.
    pub fn drive(
        &mut self,
        mut more: impl FnMut(usize) -> bool,
        mut submit: impl FnMut(usize) -> Result<(T, RunHandle), AdmissionError>,
        mut outcome: impl FnMut(Served<T>),
    ) -> usize {
        let mut offered = 0;
        let mut due = Instant::now();
        while more(offered) {
            if let Some(interval) = self.interval {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                due += interval;
            }
            while let Some((_, oldest)) = self.inflight.front() {
                let reap = match self.window {
                    Some(window) => self.inflight.len() >= window,
                    None => oldest.is_ready(),
                };
                if !reap {
                    break;
                }
                let (payload, handle) = self.inflight.pop_front().expect("front exists");
                outcome(Served::Resolved(payload, handle.get()));
            }
            match submit(offered) {
                Ok(admitted) => self.inflight.push_back(admitted),
                Err(refused) => outcome(Served::Refused(refused)),
            }
            offered += 1;
        }
        for (payload, handle) in self.inflight.drain(..) {
            outcome(Served::Resolved(payload, handle.get()));
        }
        offered
    }
}

/// `dot` with its node identifiers (`n<address>`, different in every
/// process) renamed `n0`, `n1`, ... in order of first appearance, so that
/// the same graph is the same bytes. An identifier is a whole word of a
/// node or edge statement; a label is left alone unless one of its inner
/// words looks like one, which no graph drawn here has.
pub fn canonical_dot(dot: &str) -> String {
    let mut ids: Vec<String> = Vec::new();
    let mut rename = |word: &str| {
        let id = word.trim_end_matches(';');
        let hex = id.strip_prefix('n').filter(|hex| !hex.is_empty());
        if !hex.is_some_and(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit())) {
            return word.to_string();
        }
        let index = ids.iter().position(|seen| seen == id).unwrap_or_else(|| {
            ids.push(id.to_string());
            ids.len() - 1
        });
        format!("n{index}{}", &word[id.len()..])
    };
    let lines = dot.lines().map(|line| {
        let words: Vec<String> = line.split(' ').map(&mut rename).collect();
        words.join(" ") + "\n"
    });
    lines.collect()
}

/// A `--check` run's verdict: prints `<gate> gate: OK (<ok>)` when nothing
/// failed, else every failure on stderr and exits non-zero.
pub fn finish_gate(gate: &str, ok: &str, failures: &[String]) {
    if failures.is_empty() {
        println!("{gate} gate: OK ({ok})");
        return;
    }
    for failure in failures {
        eprintln!("{gate} gate FAIL: {failure}");
    }
    std::process::exit(1);
}

/// Milliseconds elapsed running `f` once.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of `samples` (the upper one of an even count); sorts them.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// A CSV + console sink for one experiment's rows.
pub struct Report {
    csv: String,
}

impl Report {
    /// Creates a report under `header`, the CSV's first line, and prints
    /// it.
    pub fn new(header: &str) -> Report {
        println!("  {}", header.replace(',', "  \t"));
        Report {
            csv: format!("{header}\n"),
        }
    }

    /// Appends one row, given as its CSV line (printed to the console
    /// immediately).
    pub fn row(&mut self, line: std::fmt::Arguments<'_>) {
        let line = line.to_string();
        println!("  {}", line.replace(',', "  \t"));
        self.csv += &(line + "\n");
    }

    /// The CSV text.
    pub fn csv(&self) -> &str {
        &self.csv
    }
}
