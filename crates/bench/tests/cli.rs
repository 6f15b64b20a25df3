//! `das_bench` through the built binary: the id listing, the unknown-id
//! exit, and one quick figure written where `DAS_RESULTS_DIR` points. (The
//! bytes of the golden figures are `ci/goldens.sh`'s job.)

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use std::process::Command;

use das_bench::figures::FIGURES;

fn das_bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_das_bench"))
}

#[test]
fn list_prints_every_id_in_registry_order() {
    let out = das_bench().arg("list").output().unwrap();
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| line.split_whitespace().next().unwrap().to_string())
        .collect();
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(listed, ids);
}

#[test]
fn unknown_id_exits_2_and_names_it() {
    let out = das_bench().args(["table3", "fig99"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the ids are checked"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure id `fig99`"), "{stderr}");
    for f in &FIGURES {
        assert!(stderr.contains(f.id), "id list is missing {}", f.id);
    }
}

#[test]
fn one_quick_figure_writes_exactly_its_two_files() {
    let dir = std::env::temp_dir().join("das_bench_cli").join("table3");
    let _ = std::fs::remove_dir_all(&dir);
    let out = das_bench()
        .arg("table3")
        .env("DAS_QUICK", "1")
        .env("DAS_RESULTS_DIR", &dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["table3.json", "table3.md"]);
    let markdown = std::fs::read_to_string(dir.join("table3.md")).unwrap();
    assert!(markdown.starts_with("## table3 — "));
    // `emit` prints the Markdown with `println!`.
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        format!("{markdown}\n")
    );
}
