//! Shared harness utilities: CLI flags, timing, and result output.
//!
//! Every `table*`/`fig*` binary accepts:
//!
//! * `--full` — paper-scale parameters (hours on this container); the
//!   default is a scaled-down configuration with the same shape;
//! * `--out <dir>` — where CSV results land (default `results/`);
//! * `--part <name>` — sub-experiment selector where a figure has several
//!   panels;
//! * `--threads a,b,c` — override the thread sweep;
//! * `--check` — gate mode, where a binary has one (`fig9`, `oneshot`,
//!   `served`, `serving`, `soak`, `profile`);
//! * `--reps n` — repetitions per measurement (the median is reported).
//!
//! A gate binary names the further `--key n` flags it reads (`--workers`,
//! `--duration-ms`, ...) to [`Cli::parse_with`]; any other flag is an
//! error, and every number is read through [`Cli::number`].
//!
//! The gates' shared plumbing lives here too: [`http_get`] and
//! [`Scraper`] for the introspection endpoints, [`finish_gate`] for the
//! verdict.

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

impl Cli {
    /// Parses `std::env::args`.
    pub fn parse() -> Cli {
        Cli::parse_with(&[])
    }

    /// Parses `std::env::args` for a binary that also reads the numeric
    /// flags `number_flags`.
    pub fn parse_with(number_flags: &'static [&'static str]) -> Cli {
        let mut cli = Cli {
            full: false,
            part: None,
            out: PathBuf::from("results"),
            threads: None,
            check: false,
            number_flags,
            numbers: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
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

    /// `true` when `--part` is absent or equals `name`.
    pub fn wants_part(&self, name: &str) -> bool {
        self.part.as_deref().is_none_or(|p| p == name)
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

    /// Writes a report file into the output directory and says so.
    pub fn write_report(&self, file: &str, text: &str) {
        std::fs::create_dir_all(&self.out).expect("cannot create output directory");
        let path = self.out.join(file);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {file}: {e}"));
        println!("  -> {}", path.display());
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

/// A thread scraping an introspection endpoint while a measurement runs,
/// so that "enabled" means enabled *and observed*: renders and shard
/// merges must be safe (and cheap) while the counters move.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<usize>,
}

impl Scraper {
    /// Starts fetching every target of `targets` from `addr`, then
    /// sleeping `period`, over and over.
    pub fn start(addr: SocketAddr, targets: &'static [&'static str], period: Duration) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut rounds = 0;
            while !stopped.load(Ordering::Acquire) {
                for target in targets {
                    let _ = http_get(addr, target);
                }
                rounds += 1;
                std::thread::sleep(period);
            }
            rounds
        });
        Scraper { stop, thread }
    }

    /// Stops the thread; how many rounds it made.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("scraper thread panicked")
    }
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

/// Median of `reps` runs of `f` (ms).
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1)).map(|_| time_ms(&mut f)).collect();
    median(&mut samples)
}

/// A CSV + console sink for one experiment's rows.
pub struct Report {
    path: PathBuf,
    rows: Vec<Vec<String>>,
    header: Vec<String>,
}

impl Report {
    /// Creates a report writing to `<out>/<name>.csv`.
    pub fn new(cli: &Cli, name: &str, header: &[&str]) -> Report {
        std::fs::create_dir_all(&cli.out).expect("cannot create output directory");
        Report {
            path: cli.out.join(format!("{name}.csv")),
            rows: Vec::new(),
            header: header.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Appends one row (printed to the console immediately).
    pub fn row(&mut self, cells: &[String]) {
        println!("  {}", cells.join("  \t"));
        self.rows.push(cells.to_vec());
    }

    /// Convenience: formats mixed cells.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Prints the header line to the console.
    pub fn print_header(&self) {
        println!("  {}", self.header.join("  \t"));
    }

    /// Writes the CSV file.
    pub fn save(&self) {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        std::fs::write(&self.path, out).expect("cannot write CSV");
        println!("  -> {}", self.path.display());
    }
}

/// Formats a milliseconds value compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}
