//! `tsvr` — command-line interface to the surveillance video retrieval
//! system.
//!
//! ```text
//! tsvr simulate --db traffic.db --scenario tunnel --seed 7 --clip-id 1 [--frames N] [--archive-video]
//! tsvr list     --db traffic.db [--location L] [--camera C]
//! tsvr info     --db traffic.db --clip-id 1
//! tsvr query    --db traffic.db --clip-id 1 [--event accident] [--learner ocsvm] [--rounds 4] [--top 20]
//! tsvr session list --db traffic.db [--clip-id 1]   (alias: tsvr sessions)
//! tsvr export   --db traffic.db --clip-id 1 --from 100 --to 115 --out frames/
//! tsvr compact  --db traffic.db
//! ```
//!
//! Argument parsing is hand-rolled (`--flag value` pairs) to stay within
//! the std-only dependency policy.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
