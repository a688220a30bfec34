//! End-to-end runner: set up, serve one workload's seeded traffic on
//! the wall clock, check every output against the offline oracle, and
//! print the end-to-end metrics. Exits non-zero on a token mismatch or
//! a conservation breach.

use servbench::{report, setup, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", servbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let m = servbench::measure(args, &mut [&mut setup::start], &mut || {})?
        .pop()
        .ok_or("no server was measured")?;
    println!("{}", servbench::describe(args, &m));
    let run = m.pooled();
    let oracle = servbench::oracle_for(&m, &[&run]);
    let verdict = report::verdict(&run, m.generated(&args.spec), &oracle, &m.report);
    let metrics = servbench::end_to_end(args, &m);
    report::print_result(&verdict, &metrics, "end_to_end")?;
    Ok(verdict.correct())
}
