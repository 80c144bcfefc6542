//! Helper binary of the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench replay-fig3 --seed S
//! perfbench replay-tournament --seed S
//! perfbench drive --socket PATH --daemon-pid P --window W --requests N --seed S
//! perfbench daemon-layers --seed S --requests N
//! perfbench verdicts --seed S --requests N
//! perfbench calibrate
//! ```
//!
//! `verdicts` prints the digest of a window-1 verdict sequence, computed
//! in-process; it is how `digests.json` records them. `calibrate` times
//! one pass of the fixed reference loop that `norm_cpu_us_per_op`
//! divides by.
//!
//! Each subcommand prints one JSON object on stdout. The replays time
//! every call into a layer's public function from outside; `drive` is
//! the closed-loop client of the daemon workloads.

mod admission;
mod calibrate;
mod fig3;
mod ledger;
mod stream;
mod tournament;

use daemon::cli::Cli;

/// A required flag's value, or exit 2 naming it.
fn required<'a>(cli: &'a Cli, cmd: &str, flag: &str) -> &'a str {
    cli.get(flag).unwrap_or_else(|| {
        eprintln!("perfbench {cmd}: --{flag} is required");
        std::process::exit(2);
    })
}

fn main() {
    let cli = Cli::parse();
    let seed: u64 = cli.get_or("seed", 1);
    let out = match cli.positional(0) {
        Some("replay-fig3") => fig3::replay(seed),
        Some("replay-tournament") => tournament::replay(seed),
        Some("drive") => {
            let socket = required(&cli, "drive", "socket");
            let Ok(daemon_pid) = required(&cli, "drive", "daemon-pid").parse() else {
                eprintln!("perfbench drive: --daemon-pid must be a process id");
                std::process::exit(2);
            };
            admission::drive(
                socket,
                daemon_pid,
                cli.get_or::<usize>("window", 1).max(1),
                cli.get_or("requests", 20_000),
                seed,
            )
        }
        Some("verdicts") => {
            let (log, _) = admission::in_process(seed, cli.get_or("requests", 20_000), 1);
            format!("{{\"digest\":\"{}\"}}", admission::verdict_digest(&log))
        }
        Some("calibrate") => format!("{{\"cpu_ns\":{}}}", calibrate::run()),
        Some("daemon-layers") => admission::layers(seed, cli.get_or("requests", 20_000)),
        _ => {
            eprintln!(
                "usage: perfbench (replay-fig3 | replay-tournament | drive | daemon-layers | verdicts | calibrate) [options]"
            );
            std::process::exit(2);
        }
    };
    println!("{out}");
}
