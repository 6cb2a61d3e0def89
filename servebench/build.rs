//! Records the build environment for the benchmark's environment block:
//! the compiler version and the repository commit (`unknown` when the
//! repository root is not a git checkout).

use std::path::Path;
use std::process::Command;

/// Trimmed standard output of a successful command.
fn output(cmd: &mut Command) -> Option<String> {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(Command::new(rustc).arg("-V"));
    println!(
        "cargo:rustc-env=SERVEBENCH_RUSTC={}",
        version.unwrap_or_else(|| "unknown".to_string())
    );

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    // Only ask git when the root itself is a checkout: otherwise git would
    // search the parent directories for some unrelated repository.
    let commit = if root.join(".git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
        output(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    println!(
        "cargo:rustc-env=SERVEBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".to_string())
    );
}
