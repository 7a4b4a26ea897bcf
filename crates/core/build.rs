//! Rejects unknown `rustflow_weaken` mutation values at build time.
//!
//! The weaken points are selected with `RUSTFLAGS='--cfg
//! rustflow_weaken="..."'`. A misspelled value would make every
//! `cfg(rustflow_weaken = ...)` in the sources false — i.e. silently
//! build the *sound* code — and CI's mutation loop would then count a
//! no-op mutant as "caught". rustc's `--check-cfg` machinery only
//! validates cfg *usage sites* in source, never the command-line value
//! itself, so the build script is the one place the typo can be turned
//! into a hard error. (The value-less `--cfg rustflow_weaken` form is
//! additionally rejected by a `compile_error!` in `src/sync.rs`.)

const KNOWN_MUTATIONS: &[&str] = &[
    "wsq_pop_fence",
    "wsq_grow_swap",
    "ring_publish",
    "injector_publish",
    "notifier_dekker",
    "rearm_publish",
    "cancel_publish",
    "frontdoor_backlog",
    "seed_plain_race",
    "seed_lock_cycle",
];

fn main() {
    println!("cargo::rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    // Flags are 0x1f-separated; a cfg arrives as `--cfg <spec>` (two
    // entries) or `--cfg=<spec>` (one).
    let mut specs = Vec::new();
    let mut iter = flags.split('\u{1f}').peekable();
    while let Some(flag) = iter.next() {
        if flag == "--cfg" {
            if let Some(spec) = iter.next() {
                specs.push(spec);
            }
        } else if let Some(spec) = flag.strip_prefix("--cfg=") {
            specs.push(spec);
        }
    }
    for spec in specs {
        let spec = spec.trim();
        let Some(value) = spec.strip_prefix("rustflow_weaken") else {
            continue;
        };
        let value = value.trim_start();
        let Some(value) = value.strip_prefix('=') else {
            // Bare `--cfg rustflow_weaken`: let the compile_error! in
            // src/sync.rs produce the diagnostic at a source location.
            continue;
        };
        let value = value.trim().trim_matches('"');
        if !KNOWN_MUTATIONS.contains(&value) {
            eprintln!(
                "error: unknown rustflow_weaken value {value:?}; known mutations: {}",
                KNOWN_MUTATIONS.join(", ")
            );
            std::process::exit(1);
        }
    }
}
