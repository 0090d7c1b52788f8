//! The workspace lint binary: walks the given roots (default
//! `crates`), collects every non-test `.rs` file and lints them as
//! **one workspace** (the dataflow rules pair atomic sites and lock
//! orders across files), prints unsuppressed findings as
//! `path:line: [rule] message`, and exits non-zero when any exist.
//!
//! Benches and examples under the roots, and the whole workspace's
//! `crates/`, `examples/` and `perfbench/src/` (found from the first
//! root), are read as callers for `unused-pub` but never linted, so
//! linting one crate still sees the rest of the workspace use it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use paraconv_verify::lint::lint_workspace;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "tests"];

/// Directories whose files exercise the library rather than form it:
/// read as callers, never linted.
const EXERCISE_DIRS: [&str; 2] = ["benches", "examples"];

/// Caller-only trees, relative to the workspace root: every non-test
/// file there may keep a `pub` item alive (`unused-pub`), whichever
/// roots are linted.
const CALLER_DIRS: [&str; 3] = ["crates", "examples", "perfbench/src"];

/// Collects `.rs` files under `dir`: into `callers` inside an exercise
/// directory (or when `exercise` is already set), else into `linted`.
fn walk(dir: &Path, exercise: bool, linted: &mut Vec<PathBuf>, callers: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for child in children {
        let name = child.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if child.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(
                    &child,
                    exercise || EXERCISE_DIRS.contains(&name),
                    linted,
                    callers,
                );
            }
        } else if child.extension().and_then(|e| e.to_str()) == Some("rs") {
            if exercise {
                callers.push(child);
            } else {
                linted.push(child);
            }
        }
    }
}

/// The nearest ancestor of `from` holding a `[workspace]` manifest and
/// a `crates` directory.
fn workspace_root(from: &Path) -> Option<PathBuf> {
    let start = fs::canonicalize(from).ok()?;
    start
        .ancestors()
        .find(|dir| {
            dir.join("crates").is_dir()
                && fs::read_to_string(dir.join("Cargo.toml"))
                    .is_ok_and(|manifest| manifest.contains("[workspace]"))
        })
        .map(Path::to_path_buf)
}

fn read_all(files: &[PathBuf]) -> Vec<(String, String)> {
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let Ok(source) = fs::read_to_string(file) else {
            eprintln!("warning: could not read {}", file.display());
            continue;
        };
        sources.push((file.to_string_lossy().replace('\\', "/"), source));
    }
    sources
}

fn main() -> ExitCode {
    let roots: Vec<String> = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            vec!["crates".to_string()]
        } else {
            args
        }
    };

    let (mut files, mut callers) = (Vec::new(), Vec::new());
    for root in &roots {
        let path = Path::new(root);
        if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            walk(path, false, &mut files, &mut callers);
        }
    }
    if let Some(workspace) = roots.first().and_then(|r| workspace_root(Path::new(r))) {
        let seen: BTreeSet<PathBuf> = files
            .iter()
            .chain(&callers)
            .filter_map(|f| fs::canonicalize(f).ok())
            .collect();
        let mut more = Vec::new();
        for dir in CALLER_DIRS {
            walk(&workspace.join(dir), true, &mut Vec::new(), &mut more);
        }
        callers.extend(
            more.into_iter()
                .filter(|f| fs::canonicalize(f).is_ok_and(|c| !seen.contains(&c))),
        );
    }

    let sources = read_all(&files);
    let mut total = 0usize;
    for (path, finding) in lint_workspace(&sources, &read_all(&callers)) {
        println!("{path}:{finding}");
        total += 1;
    }

    if total > 0 {
        eprintln!(
            "paraconv-verify: {total} finding(s) across {} file(s); annotate with `// lint: allow(<rule>)` or fix",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        eprintln!(
            "paraconv-verify: clean ({} files linted, {} caller files read)",
            files.len(),
            callers.len()
        );
        ExitCode::SUCCESS
    }
}
