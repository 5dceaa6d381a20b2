//! Byte formatting for the memory reports of Figures 2 and 13.

/// Bytes in GiB, for reports.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gib_formatting() {
        assert!((gib(1u64 << 30) - 1.0).abs() < 1e-12);
        assert!((gib(121 * (1u64 << 30)) - 121.0).abs() < 1e-9);
    }
}
