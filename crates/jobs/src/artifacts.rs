//! Typed artifact store: one root directory per sweep run that CSV
//! tables, JSON exports and resumption journals all
//! land under, so CI can upload a single directory and `--check` gates
//! know where to look.
//!
//! The root defaults to `$CARGO_TARGET_DIR/experiments` (the directory
//! the experiment binaries have always written) and is overridable with
//! `HWGC_ARTIFACTS` — pointing a sweep at a scratch root never touches
//! the committed tree.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use hwgc_obs::Json;

/// A writable artifact directory with typed emit helpers. Construction
/// creates the root; helpers create files under it and return the path
/// written, so callers can report exact locations.
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// The default store: `HWGC_ARTIFACTS` when set, else
    /// `$CARGO_TARGET_DIR/experiments` (falling back to
    /// `target/experiments`).
    ///
    /// # Panics
    /// Panics when the root cannot be created — every artifact write
    /// after that would fail anyway.
    pub fn open_default() -> ArtifactStore {
        let root = std::env::var_os("HWGC_ARTIFACTS")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                PathBuf::from(
                    std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
                )
                .join("experiments")
            });
        ArtifactStore::at(&root)
    }

    /// A store rooted at `root` (created if absent).
    pub fn at(root: &Path) -> ArtifactStore {
        fs::create_dir_all(root)
            .unwrap_or_else(|e| panic!("create artifact root {}: {e}", root.display()));
        ArtifactStore {
            root: root.to_path_buf(),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Write a CSV artifact (`<name>.csv`): header line, then the
    /// already comma-joined rows.
    pub fn csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        let mut body = String::with_capacity(header.len() + 1);
        body.push_str(header);
        body.push('\n');
        for row in rows {
            body.push_str(row);
            body.push('\n');
        }
        self.write(&format!("{name}.csv"), body.as_bytes())
    }

    /// Write a JSON artifact (`<name>.json`), compact encoding.
    pub fn json(&self, name: &str, value: &Json) -> PathBuf {
        let mut body = value.to_string_compact();
        body.push('\n');
        self.write(&format!("{name}.json"), body.as_bytes())
    }

    /// Write a free-form text artifact under the exact file name given
    /// (callers pick the extension: `.txt`, `.folded`, …).
    pub fn text(&self, file_name: &str, contents: &str) -> PathBuf {
        self.write(file_name, contents.as_bytes())
    }

    fn write(&self, file_name: &str, bytes: &[u8]) -> PathBuf {
        let path = self.root.join(file_name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("create {}: {e}", parent.display()));
        }
        let mut f = fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create artifact {}: {e}", path.display()));
        f.write_all(bytes)
            .unwrap_or_else(|e| panic!("write artifact {}: {e}", path.display()));
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_writes_typed_artifacts_under_its_root() {
        let root = std::env::temp_dir().join("hwgc-artifact-tests");
        let _ = fs::remove_dir_all(&root);
        let store = ArtifactStore::at(&root);
        let csv = store.csv("t", "a,b", &["1,2".to_string()]);
        assert_eq!(fs::read_to_string(&csv).unwrap(), "a,b\n1,2\n");
        let json = store.json("t", &Json::Int(7));
        assert_eq!(fs::read_to_string(&json).unwrap(), "7\n");
        let txt = store.text("notes.txt", "hi");
        assert_eq!(fs::read_to_string(&txt).unwrap(), "hi");
    }
}
