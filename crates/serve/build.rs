//! Embeds the short git hash as `MAESTRO_GIT_HASH` for the
//! `maestro_build_info` metric. Builds from a tarball (no `.git`, no
//! `git` binary) fall back to the compiled-in `"unknown"`.

use std::path::Path;

fn main() {
    // Rerun when the commit HEAD resolves to moves: HEAD itself, the
    // branch ref it names and packed-refs. The ref is watched through its
    // directory, because a commit on a packed branch writes a loose ref
    // file that did not exist before. Cargo counts a watched path that
    // does not exist as changed, so only existing paths are watched; with
    // none (a tarball), the hash is fixed until this script changes.
    let git = Path::new("../../.git");
    let head = git.join("HEAD");
    let branch_dir = std::fs::read_to_string(&head).ok().and_then(|text| {
        let name = text.strip_prefix("ref:")?.trim();
        Some(git.join(name).parent()?.to_path_buf())
    });
    let watched: Vec<_> = [Some(head), branch_dir, Some(git.join("packed-refs"))]
        .into_iter()
        .flatten()
        .filter(|path| path.exists())
        .collect();
    if watched.is_empty() {
        println!("cargo:rerun-if-changed=build.rs");
    }
    for path in &watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
    let hash = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    if let Some(hash) = hash {
        println!("cargo:rustc-env=MAESTRO_GIT_HASH={hash}");
    }
}
