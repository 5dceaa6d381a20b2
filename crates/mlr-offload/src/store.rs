//! A file-backed variable store.
//!
//! The planner and the simulation model offloading analytically; this store
//! is the mechanism for real: a named `f64` array is serialised to a file
//! (the stand-in for the node-local NVMe SSD), dropped from memory, and read
//! back on prefetch, bit-identical. No reconstruction calls it yet; its own
//! tests are its only callers.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// A directory-backed store for named `f64` arrays.
#[derive(Debug)]
pub struct SsdStore {
    dir: PathBuf,
    offloaded: HashMap<String, usize>,
    bytes_written: u64,
    bytes_read: u64,
}

impl SsdStore {
    /// Creates a store rooted at `dir` (created if missing).
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory.
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            offloaded: HashMap::new(),
            bytes_written: 0,
            bytes_read: 0,
        })
    }

    /// Creates a store in a fresh subdirectory of the system temp directory.
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory.
    pub fn temp(tag: &str) -> std::io::Result<Self> {
        let dir = std::env::temp_dir().join(format!("mlr-offload-{tag}-{}", std::process::id()));
        Self::new(dir)
    }

    fn path_for(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.bin"))
    }

    /// Offloads (writes) a variable. The caller is expected to drop its
    /// in-memory copy afterwards.
    ///
    /// # Errors
    /// Returns any I/O error from writing the file.
    pub fn offload(&mut self, name: &str, data: &[f64]) -> std::io::Result<()> {
        let mut file = fs::File::create(self.path_for(name))?;
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        file.write_all(&bytes)?;
        file.flush()?;
        self.bytes_written += bytes.len() as u64;
        self.offloaded.insert(name.to_string(), data.len());
        Ok(())
    }

    /// Prefetches (reads back) a previously offloaded variable.
    ///
    /// # Errors
    /// Returns `NotFound` when the variable was never offloaded, or any I/O
    /// error from reading the file.
    pub fn prefetch(&mut self, name: &str) -> std::io::Result<Vec<f64>> {
        let len = *self.offloaded.get(name).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{name} not offloaded"),
            )
        })?;
        let mut file = fs::File::open(self.path_for(name))?;
        let mut bytes = Vec::with_capacity(len * 8);
        file.read_to_end(&mut bytes)?;
        self.bytes_read += bytes.len() as u64;
        let out = bytes
            .chunks_exact(8)
            .map(|c| {
                let mut word = [0u8; 8];
                word.copy_from_slice(c);
                f64::from_le_bytes(word)
            })
            .collect();
        Ok(out)
    }

    /// Removes a variable's backing file.
    ///
    /// # Errors
    /// Returns any I/O error from deleting the file.
    pub fn evict(&mut self, name: &str) -> std::io::Result<()> {
        if self.offloaded.remove(name).is_some() {
            fs::remove_file(self.path_for(name))?;
        }
        Ok(())
    }

    /// Names of currently offloaded variables.
    pub fn offloaded_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.offloaded.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total bytes written / read so far.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_written, self.bytes_read)
    }
}

impl Drop for SsdStore {
    fn drop(&mut self) {
        // Best-effort cleanup of the backing files.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_prefetch_roundtrip_is_bit_identical() {
        let mut store = SsdStore::temp("roundtrip").unwrap();
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e6).collect();
        store.offload("psi", &data).unwrap();
        let back = store.prefetch("psi").unwrap();
        assert_eq!(back, data);
        let (w, r) = store.traffic();
        assert_eq!(w, 8000);
        assert_eq!(r, 8000);
    }

    #[test]
    fn prefetch_unknown_variable_errors() {
        let mut store = SsdStore::temp("unknown").unwrap();
        let err = store.prefetch("nope").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn evict_removes_variable() {
        let mut store = SsdStore::temp("evict").unwrap();
        store.offload("g", &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(store.offloaded_names(), vec!["g"]);
        store.evict("g").unwrap();
        assert!(store.offloaded_names().is_empty());
        assert!(store.prefetch("g").is_err());
        // Evicting again is a no-op.
        store.evict("g").unwrap();
    }

    #[test]
    fn multiple_variables_coexist() {
        let mut store = SsdStore::temp("multi").unwrap();
        store.offload("a", &[1.0; 10]).unwrap();
        store.offload("b", &[2.0; 20]).unwrap();
        assert_eq!(store.offloaded_names(), vec!["a", "b"]);
        assert_eq!(store.prefetch("a").unwrap().len(), 10);
        assert_eq!(store.prefetch("b").unwrap()[0], 2.0);
    }
}
