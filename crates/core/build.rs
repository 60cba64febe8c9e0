//! Compile the build's identity in, so no process has to ask for it.
//!
//! * `PADFA_SOURCE_HASH` — FNV-1a 64 over the sorted relative paths and
//!   contents of every `.rs` under `src/` of the crates whose code decides
//!   an analysis result (core, omega, pred, ir), plus the workspace
//!   `Cargo.lock`. It names the store's build directory: equal sources,
//!   equal name, wherever and whenever the binary was built or is run.
//! * `PADFA_GIT_REV` — `git rev-parse --short=12 HEAD`, `+dirty` when the
//!   tree has local changes, `unknown` without git or a `.git`. A label
//!   for ledgers and metrics only; nothing keys on it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const ANALYZING_CRATES: [&str; 4] = ["core", "omega", "pred", "ir"];

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/core sits two levels under the workspace root");

    let mut files = Vec::new();
    for krate in ANALYZING_CRATES {
        let src = root.join("crates").join(krate).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        collect_rs(&src, &mut files);
    }
    let lock = root.join("Cargo.lock");
    println!("cargo:rerun-if-changed={}", lock.display());
    files.push(lock);

    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap_or(&p);
            let name = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            (name, p)
        })
        .collect();
    named.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (name, path) in &named {
        let bytes = fs::read(path).unwrap_or_default();
        fnv1a(&mut h, name.as_bytes());
        fnv1a(&mut h, &[0]);
        fnv1a(&mut h, &(bytes.len() as u64).to_le_bytes());
        fnv1a(&mut h, &bytes);
    }
    println!("cargo:rustc-env=PADFA_SOURCE_HASH={h:016x}");
    println!("cargo:rustc-env=PADFA_GIT_REV={}", git_rev(root));
}

/// Every `.rs` file under `dir`, recursively.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    if !git.exists() {
        return "unknown".to_string();
    }
    for f in ["HEAD", "index"] {
        let p = git.join(f);
        if p.exists() {
            println!("cargo:rerun-if-changed={}", p.display());
        }
    }
    let out = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    match out(&["rev-parse", "--short=12", "HEAD"]).filter(|s| !s.is_empty()) {
        Some(rev) if out(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{rev}+dirty")
        }
        Some(rev) => rev,
        None => "unknown".to_string(),
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}
