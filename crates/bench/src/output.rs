//! Uniform output handling for `das_bench`: every figure/table renders to
//! Markdown on stdout and optionally persists JSON + Markdown under
//! `results/` for EXPERIMENTS.md.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

use das_metrics::summary::ComparisonTable;
use serde::Serialize;

/// One regenerated figure or table.
#[derive(Debug, Serialize)]
pub struct FigureOutput {
    /// Experiment id, e.g. `"fig06"`: the registry entry's, stamped in by
    /// [`crate::figures::Figure::run`].
    pub id: String,
    /// Human title.
    pub title: String,
    /// The tables making up the figure.
    pub tables: Vec<ComparisonTable>,
    /// Free-form notes (what to look for, caveats).
    pub notes: String,
}

impl FigureOutput {
    /// Creates an output with no tables yet and no id.
    pub fn new(title: impl Into<String>) -> Self {
        FigureOutput {
            id: String::new(),
            title: title.into(),
            tables: Vec::new(),
            notes: String::new(),
        }
    }

    /// Renders the whole figure as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("_{}_\n", self.notes.trim()));
        }
        out
    }

    /// Prints to stdout and persists under `results/` (if writable).
    pub fn emit(&self) {
        println!("{}", self.to_markdown());
        if let Err(e) = self.persist() {
            eprintln!("note: could not persist results: {e}");
        }
    }

    /// Writes `results/<id>.md` and `results/<id>.json`.
    pub fn persist(&self) -> std::io::Result<()> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        fs::write(dir.join(format!("{}.md", self.id)), self.to_markdown())?;
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        fs::write(dir.join(format!("{}.json", self.id)), json)?;
        Ok(())
    }
}

/// Writes the side file `<results dir>/<file_name>` (an event log, a Chrome
/// trace, `ALL.md`) through `write`, buffered and flushed. Best-effort like
/// [`FigureOutput::emit`]: the outcome goes to stderr, the figure goes on.
pub fn persist_with(file_name: &str, write: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    let dir = results_dir();
    let path = dir.join(file_name);
    let persist = || -> io::Result<()> {
        fs::create_dir_all(&dir)?;
        let mut w = io::BufWriter::new(fs::File::create(&path)?);
        write(&mut w)?;
        w.flush()
    };
    match persist() {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("note: could not persist {file_name}: {e}"),
    }
}

/// The results directory: `$DAS_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("DAS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// True when quick mode is requested (`DAS_QUICK=1`): shorter horizons and
/// sparser sweeps, for CI and smoke tests.
pub fn quick_mode() -> bool {
    std::env::var("DAS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_contains_tables_and_notes() {
        let mut f = FigureOutput {
            id: "figX".into(),
            ..FigureOutput::new("demo")
        };
        let mut t = ComparisonTable::new("T", vec!["a".into()]);
        t.push_row("r", vec![1.0]);
        f.tables.push(t);
        f.notes = "look here".into();
        let md = f.to_markdown();
        assert!(md.contains("## figX — demo"));
        assert!(md.contains("| r |"));
        assert!(md.contains("_look here_"));
    }

    #[test]
    fn results_dir_default() {
        // Do not mutate the environment (tests run in parallel); just check
        // the fallback shape.
        let d = results_dir();
        assert!(d.ends_with("results") || d.is_absolute());
    }
}
