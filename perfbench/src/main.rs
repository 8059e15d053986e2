//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! [--out <dir>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced), preceded
//! by a context line with the resolved knobs. Exit code 0 on success, 1
//! when any labelling was wrong, 2 when the run could not be carried out
//! (bad arguments, unusable environment) — then no result line is
//! printed.

use perfbench::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <perm-scale|cube-scale|family-sweep|online-epochs> \
                     --seed <n> --seconds <n> --trace <0|1> [--out <dir>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::FamilySweep,
        seed: 0,
        seconds: 0,
        trace: false,
        toy: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (false, false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                cfg.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                workload = true;
            }
            "--seed" => {
                cfg.seed = number()?;
                seed = true;
            }
            "--seconds" => {
                cfg.seconds = number()?;
                if cfg.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = true;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
                trace = true;
            }
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if workload && seed && seconds && trace {
        Ok(cfg)
    } else {
        Err("--workload, --seed, --seconds and --trace are all required".into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg).and_then(|report| Ok((report.result_json()?, report)));
    match result {
        Ok((line, report)) => {
            println!("{}", report.context_json());
            println!("{line}");
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
