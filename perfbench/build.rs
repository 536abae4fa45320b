//! Records the compiler version and the source commit into the binary, so
//! every result the benchmark writes carries its host metadata. Outside a
//! git checkout the commit reads `unknown`.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit().unwrap_or_else(|| "unknown".to_string())
    );
}

/// The commit `../.git/HEAD` points at, read from the ref files directly
/// (no `git` process, nothing read outside the repository).
fn commit() -> Option<String> {
    let git = Path::new("../.git");
    let head_path = git.join("HEAD");
    let head = std::fs::read_to_string(&head_path).ok()?;
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let ref_path = git.join(name);
    if let Ok(id) = std::fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}
