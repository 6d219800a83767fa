//! Embeds a deterministic code fingerprint into the crate as the
//! `CONGEST_BUILD_ID` compile-time environment variable.
//!
//! The scenario farm's content-addressed cell cache keys every entry on the
//! cell's canonical spec stanza *and* this build id, so a cache directory
//! can never serve results computed by a different implementation: any
//! source change in the crates a cell's result depends on (the simulator
//! core, the protocols, the harness itself) rolls the fingerprint and with
//! it every cache key. The hash is FNV-1a over the sorted relative paths
//! and contents of those crates' `src` trees — a pure function of the
//! sources, so two builds of identical code (on any host) agree on the id and share cache entries, while `Instant`-style build
//! timestamps (which would defeat warm CI caches) never enter it.

use std::fs;
use std::path::Path;

/// The `src` trees whose sources determine a cell's result. Relative to
/// this crate's manifest directory.
const SOURCE_ROOTS: &[&str] = &[
    "src",
    "../congest-net/src",
    "../qle/src",
    "../classical-baselines/src",
    "../quantum-sim/src",
    "../shims/rand/src",
];

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("CARGO_MANIFEST_DIR");
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for root in SOURCE_ROOTS {
        let dir = Path::new(&manifest).join(root);
        collect_sources(&dir, root, &mut files);
        // A directory path re-runs the script when anything under it
        // changes, so the fingerprint can never go stale.
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    // Sort by the manifest-relative label, not the absolute path, so the
    // fingerprint is independent of where the workspace is checked out.
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (label, contents) in &files {
        for b in label.bytes().chain(contents.iter().copied()) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("cargo:rustc-env=CONGEST_BUILD_ID={hash:016x}");
}

/// Recursively collects every `.rs` file under `dir`, labelled with its
/// path relative to the crate manifest (stable across checkouts).
fn collect_sources(dir: &Path, label: &str, files: &mut Vec<(String, Vec<u8>)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let child_label = format!("{label}/{}", entry.file_name().to_string_lossy());
        if path.is_dir() {
            collect_sources(&path, &child_label, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            if let Ok(contents) = fs::read(&path) {
                files.push((child_label, contents));
            }
        }
    }
}
