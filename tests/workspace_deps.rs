//! Guard against dead dependencies.
//!
//! Every crate a workspace member lists under `[dependencies]` or
//! `[dev-dependencies]` must be named as a path root (`name::…`,
//! `use name…`) somewhere in that package's `src`, `tests`, `benches` or
//! `examples`. A dependency nothing names only costs build time and
//! misleads readers about what the package relies on.

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root: this test belongs to the root (facade) package.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root package plus every package the `members = [...]` globs of the
/// root manifest select (only the `dir/*` form is used there).
fn member_dirs() -> Vec<PathBuf> {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let members = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("members"))
        .expect("root manifest lists its workspace members");
    let mut dirs = vec![root()];
    for glob in members.split('"').skip(1).step_by(2) {
        let parent = glob
            .strip_suffix("/*")
            .unwrap_or_else(|| panic!("unsupported member pattern {glob:?}"));
        let mut found: Vec<PathBuf> = fs::read_dir(root().join(parent))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        found.sort();
        dirs.extend(found);
    }
    dirs
}

/// The crate names (as code spells them) a manifest lists under
/// `[dependencies]` and `[dev-dependencies]`.
fn declared_dependencies(manifest: &str) -> Vec<String> {
    let mut section = "";
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if section != "[dependencies]" && section != "[dev-dependencies]" {
            continue;
        }
        let key: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        if !key.is_empty() {
            deps.push(key.replace('-', "_"));
        }
    }
    deps
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The package's Rust sources with comment lines dropped, so a crate that
/// only a doc comment mentions still counts as unused.
fn package_code(dir: &Path) -> String {
    let mut files = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        rust_files(&dir.join(sub), &mut files);
    }
    let mut code = String::new();
    for file in files {
        for line in fs::read_to_string(&file).unwrap().lines() {
            if !line.trim_start().starts_with("//") {
                code.push_str(line);
                code.push('\n');
            }
        }
    }
    code
}

/// Whether `code` names `krate` as a path root: `krate::` or `use krate`
/// not preceded by another identifier character.
fn names_crate(code: &str, krate: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices(krate).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = &code[at + krate.len()..];
        if before.is_some_and(is_ident) {
            return false;
        }
        after.starts_with("::")
            || (code[..at].ends_with("use ") && after.starts_with([';', ' ', '\n']))
    })
}

#[test]
fn every_declared_dependency_is_used() {
    let mut dead = Vec::new();
    for dir in member_dirs() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let code = package_code(&dir);
        for dep in declared_dependencies(&manifest) {
            if !names_crate(&code, &dep) {
                dead.push(format!("{} -> {dep}", dir.display()));
            }
        }
    }
    assert!(dead.is_empty(), "dependencies no code names: {dead:#?}");
}

#[test]
fn path_root_detection() {
    assert!(names_crate("use rand::Rng;", "rand"));
    assert!(names_crate("pub use mesh2d;\n", "mesh2d"));
    assert!(names_crate(
        "    mocp_obs::counter!(\"x\").inc();",
        "mocp_obs"
    ));
    assert!(names_crate(
        "let g = crossbeam::scope(|s| {});",
        "crossbeam"
    ));
    assert!(!names_crate("let x = operand::f();", "rand"));
    assert!(!names_crate("let rand = 3;", "rand"));
    assert!(!names_crate("use randomize::X;", "rand"));
}
