//! The `tp-serve` daemon binary.
//!
//! ```sh
//! tp-serve [--addr HOST:PORT] [--threads N] [--cache PATH]
//! ```
//!
//! Binds (default `127.0.0.1:7477`; port `0` picks an ephemeral port),
//! prints `tp-serve: listening on ADDR` to stdout, then serves until a
//! client sends `SHUTDOWN`. `--cache PATH` opens the proof store (the
//! framed log `matrix --cache` keeps) at startup, through the same
//! `tp_bench::open_store` as the sweep binaries (`EXIT_MALFORMED` for a
//! file the log parser refuses, 2 for one it cannot read or append
//! to); the opened cache owns the log and appends each cell a cached
//! job proves to it as one fsynced frame, so a killed daemon loses at
//! most the cell in flight.

use std::path::PathBuf;

use tp_serve::Server;

fn usage() -> ! {
    eprintln!("usage: tp-serve [--addr HOST:PORT] [--threads N] [--cache PATH]");
    std::process::exit(tp_bench::cli::EXIT_USAGE);
}

fn main() {
    let mut addr = "127.0.0.1:7477".to_string();
    let mut threads: Option<usize> = None;
    let mut cache_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--threads" => match value().parse() {
                Ok(n) if n > 0 => threads = Some(n),
                _ => usage(),
            },
            "--cache" => cache_path = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if let Some(n) = threads {
        tp_sched::configure_global_threads(n);
    }
    // Counters on by default: a daemon without METRICS is blind.
    tp_telemetry::install(tp_telemetry::TelemetrySink::counters());

    let cache = match &cache_path {
        None => tp_core::ProofCache::new(),
        Some(path) => tp_bench::open_store("tp-serve", path).0,
    };

    let server = match Server::bind(&addr, cache, None, None) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tp-serve: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(bound) => println!("tp-serve: listening on {bound}"),
        Err(e) => {
            eprintln!("tp-serve: cannot resolve bound address: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.serve() {
        eprintln!("tp-serve: accept loop failed: {e}");
        std::process::exit(1);
    }
}
