//! `das_bench` — regenerates the evaluation's figures and tables.
//!
//! ```text
//! das_bench list       the figure ids, in order, with what each shows
//! das_bench <id>...    run the named figures
//! das_bench all        run every figure and also write results/ALL.md
//! ```
//!
//! Each figure is printed as Markdown and persisted under `results/`
//! (`DAS_RESULTS_DIR` overrides the directory); `DAS_QUICK=1` selects the
//! short smoke-test sweeps.

use std::process::ExitCode;

use das_bench::figures::{Ctx, Figure, FIGURES};
use das_bench::output::{persist_with, quick_mode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args == ["all"];
    let selected: Vec<&Figure> = if all {
        FIGURES.iter().collect()
    } else if args == ["list"] {
        for f in &FIGURES {
            println!("{:<24} {}", f.id, f.about);
        }
        return ExitCode::SUCCESS;
    } else if args.is_empty() {
        return usage("missing <id>");
    } else {
        let mut selected = Vec::new();
        for id in &args {
            match FIGURES.iter().find(|f| f.id == id) {
                Some(f) => selected.push(f),
                None => return usage(&format!("unknown figure id `{id}`")),
            }
        }
        selected
    };

    let mut ctx = Ctx::new(quick_mode());
    let mut combined = String::from("# DAS reproduction — experiment outputs\n\n");
    for figure in selected {
        let output = figure.run(&mut ctx);
        output.emit();
        combined.push_str(&output.to_markdown());
        combined.push('\n');
    }
    if all {
        persist_with("ALL.md", |w| w.write_all(combined.as_bytes()));
    }
    ExitCode::SUCCESS
}

/// Prints `problem`, the usage line and the id list to stderr; exit code 2.
fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\nusage: das_bench list | all | <id>...\nids:");
    for f in &FIGURES {
        eprintln!("  {}", f.id);
    }
    ExitCode::from(2)
}
