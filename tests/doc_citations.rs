//! Every citation of DESIGN.md names one of its headings: a section
//! number after `DESIGN.md` (`§7`, `§7.4`, `§11.1–11.2`, `§3.1, §7.6`),
//! or a quoted title after `DESIGN.md,`, the heading without its number.
//! So renumbering or renaming a section fails here until every file that
//! cites it is updated. DESIGN.md's own section references are checked
//! the same way (the paper's sections are roman, as in §IV-B).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The files and trees whose citations are checked, from the repo root.
const CITING: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "scripts",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

const EXTENSIONS: &[&str] = &["rs", "md", "sh", "py", "toml"];

/// The numbers (`7`, `7.4`) and titles (`Task grain`) of DESIGN.md's
/// numbered headings.
fn headings(design: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let (mut numbers, mut titles) = (BTreeSet::new(), BTreeSet::new());
    for line in design.lines() {
        let Some(heading) = line.strip_prefix("## ").or(line.strip_prefix("### ")) else {
            continue;
        };
        let (number, title) = heading.split_once(' ').unwrap_or((heading, ""));
        let number = number.trim_end_matches('.');
        if number.starts_with(|c: char| c.is_ascii_digit()) {
            numbers.insert(number.to_string());
            // A title without its trailing qualifier: "Trace and replay"
            // for "Trace and replay (`taskrt::trace`, `--replay`)".
            let bare = title.split(" (").next().unwrap_or(title);
            titles.insert(title.to_string());
            titles.insert(bare.to_string());
        }
    }
    (numbers, titles)
}

/// Every file under `path` with a checked extension, skipping build
/// output.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if !path.exists() {
        return;
    }
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .expect("readable directory")
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for entry in entries {
            files(&entry, out);
        }
    } else if path
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| EXTENSIONS.contains(&e))
    {
        out.push(path.to_path_buf());
    }
}

/// `text` with its line breaks, and the comment markers that start the
/// next line, folded into single spaces, so a citation wrapped across
/// lines reads as one.
fn unwrap(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let line = line.trim_start();
        let line = ["//!", "///", "//", "#"]
            .iter()
            .find_map(|m| line.strip_prefix(m))
            .unwrap_or(line);
        out.push_str(line.trim());
        out.push(' ');
    }
    out
}

/// The section numbers of a `§` list starting at `text`: `§7.4`,
/// `§11.1–11.2` (both ends), `§3.5.2, §3.7`.
fn section_list(mut text: &str) -> Vec<String> {
    let mut found = Vec::new();
    while let Some(rest) = text.strip_prefix('§') {
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '–'))
            .unwrap_or(rest.len());
        let cited = rest[..end].trim_end_matches('.');
        if cited.is_empty() {
            break;
        }
        found.extend(
            cited
                .split('–')
                .filter(|n| !n.is_empty())
                .map(str::to_string),
        );
        text = rest[end..].trim_start_matches([',', ' ']);
        if let Some(next) = text.strip_prefix("and ") {
            text = next;
        }
    }
    found
}

/// How many citations of DESIGN.md `text` holds, and those that name no
/// heading.
fn citations(
    text: &str,
    numbers: &BTreeSet<String>,
    titles: &BTreeSet<String>,
) -> (usize, Vec<String>) {
    let (mut count, mut broken) = (0, Vec::new());
    for (at, _) in text.match_indices("DESIGN.md") {
        let after = text[at + "DESIGN.md".len()..].trim_start_matches('`');
        let after = after.trim_start();
        if after.starts_with('§') {
            for n in section_list(after) {
                count += 1;
                if !numbers.contains(&n) {
                    broken.push(format!("§{n}"));
                }
            }
        } else if let Some(quoted) = after.strip_prefix(", \"") {
            let title = &quoted[..quoted.find('"').unwrap_or(quoted.len())];
            count += 1;
            if !titles.contains(title) {
                broken.push(format!("\"{title}\""));
            }
        }
    }
    (count, broken)
}

#[test]
fn every_design_citation_names_a_heading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let (numbers, titles) = headings(&design);
    let mut paths = Vec::new();
    for entry in CITING {
        files(&root.join(entry), &mut paths);
    }
    let (mut total, mut broken) = (0, Vec::new());
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable file");
        if !text.contains("DESIGN.md") {
            continue;
        }
        let (count, bad) = citations(&unwrap(&text), &numbers, &titles);
        total += count;
        broken.extend(bad.iter().map(|b| format!("{}: {b}", path.display())));
    }
    assert!(
        broken.is_empty(),
        "citations that name no heading of DESIGN.md:\n{}",
        broken.join("\n")
    );
    // The walk found the citations (a broken walk would pass vacuously).
    assert!(total >= 30, "only {total} citations found");
}

#[test]
fn design_cross_references_name_its_headings() {
    let design = include_str!("../DESIGN.md");
    let (numbers, _) = headings(design);
    let text = unwrap(design);
    let mut broken = Vec::new();
    for (at, _) in text.match_indices('§') {
        for n in section_list(&text[at..]) {
            if !numbers.contains(&n) {
                broken.push(format!("§{n}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "DESIGN.md cites missing sections: {broken:?}"
    );
}
