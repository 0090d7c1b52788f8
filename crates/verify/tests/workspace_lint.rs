//! The `paraconv-verify` walker over the real workspace must be clean:
//! every rule, `unused-pub` and `stale-allow` included. Running it
//! here puts the lint into `cargo test`, so a new dead `pub` item or
//! any other finding fails the test suite, not only CI.

use std::path::Path;
use std::process::Command;

#[test]
fn the_workspace_walker_reports_no_findings() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(env!("CARGO_BIN_EXE_paraconv-verify"))
        .arg("crates")
        .current_dir(&workspace)
        .output()
        .expect("the walker runs");
    assert!(
        output.status.success(),
        "paraconv-verify crates exited {:?}:\n{}{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}
