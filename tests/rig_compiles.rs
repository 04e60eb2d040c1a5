//! The benchmark rig (`rig/`) is a package outside the workspace that pins
//! public signatures of the crates, so `cargo test` at the root never builds
//! it. This check does: a change that breaks a signature the rig calls fails
//! tier-1 here instead of surfacing when the benchmark is next run.

use std::path::Path;
use std::process::Command;

#[test]
fn rig_type_checks_against_the_workspace_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(env!("CARGO"))
        .args(["check", "--offline", "--manifest-path"])
        .arg(root.join("rig/Cargo.toml"))
        .arg("--target-dir")
        .arg(root.join("target/rig-check"))
        .output()
        .expect("cargo is runnable");
    assert!(
        output.status.success(),
        "`cargo check` of rig/ failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
