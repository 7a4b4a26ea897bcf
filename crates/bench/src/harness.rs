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
//! * `--check` — gate mode, where a binary has one (`fig9`).

use std::path::PathBuf;
use std::time::Instant;

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
    /// Repetitions per measurement (median is reported).
    pub reps: usize,
    /// Gate mode: assert against a committed file instead of timing.
    pub check: bool,
}

impl Cli {
    /// Parses `std::env::args`.
    pub fn parse() -> Cli {
        let mut cli = Cli {
            full: false,
            part: None,
            out: PathBuf::from("results"),
            threads: None,
            reps: 3,
            check: false,
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
                "--reps" => {
                    cli.reps = args
                        .next()
                        .expect("--reps needs a number")
                        .parse()
                        .expect("bad reps");
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --full | --part <name> | --out <dir> | --threads a,b,c | --reps n | --check"
                    );
                    std::process::exit(0);
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
}

/// Milliseconds elapsed running `f` once.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` runs of `f` (ms).
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1)).map(|_| time_ms(&mut f)).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
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
