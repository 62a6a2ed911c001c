//! Only a binary's `main` ends a process or names an exit code: the
//! library crates return errors, and the monitors that cannot (the stall
//! watchdog, the sanitizer) call a handler their owner installed. Every
//! code is a literal in `miniamr::cli::exit`. So no library source, that
//! is any `crates/*/src/**/*.rs` outside `src/bin/`, calls `process::exit`
//! or declares an `EXIT_CODE` constant.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, skipping its `bin` directory.
fn library_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            if !entry.ends_with("src/bin") {
                library_sources(&entry, out);
            }
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
}

#[test]
fn no_library_ends_the_process_or_names_an_exit_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    for src in &crates {
        library_sources(src, &mut sources);
    }
    assert!(sources.len() > 50, "found only {} sources", sources.len());
    let mut offences = Vec::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            if ["process::exit", "EXIT_CODE"]
                .iter()
                .any(|n| code.contains(n))
            {
                let rel = path.strip_prefix(root).unwrap_or(path);
                offences.push(format!("{}:{}: {}", rel.display(), i + 1, code));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "library code ends the process or names an exit code \
         (return an error to `main`, declare codes in `cli::exit`):\n{}",
        offences.join("\n")
    );
}
