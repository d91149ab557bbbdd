//! Result export: JSON (via serde) and CSV for offline plotting.

use serde::Serialize;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Serialise any serde-able value to pretty JSON at `path`, creating parent
/// directories as needed.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    fs::write(path, json)
}

/// A CSV writer with minimal quoting (fields containing commas, quotes or
/// newlines are quoted and inner quotes doubled).
pub struct CsvWriter {
    out: Vec<u8>,
    columns: usize,
}

impl CsvWriter {
    /// Start a CSV document with the given header.
    pub fn new(header: &[&str]) -> Self {
        let mut w = CsvWriter {
            out: Vec::new(),
            columns: header.len(),
        };
        w.write_row_raw(header.iter().map(|s| s.to_string()));
        w
    }

    /// Append a row of cells; must match the header width.
    pub fn row<S: ToString, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(
            cells.len(),
            self.columns,
            "CSV row width mismatch: {} vs {}",
            cells.len(),
            self.columns
        );
        self.write_row_raw(cells.into_iter());
    }

    fn write_row_raw<I: Iterator<Item = String>>(&mut self, cells: I) {
        let mut first = true;
        for cell in cells {
            if !first {
                self.out.push(b',');
            }
            first = false;
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                self.out.push(b'"');
                self.out
                    .extend_from_slice(cell.replace('"', "\"\"").as_bytes());
                self.out.push(b'"');
            } else {
                self.out.extend_from_slice(cell.as_bytes());
            }
        }
        self.out.push(b'\n');
    }

    /// The document as a string.
    pub fn to_string_lossy(&self) -> String {
        String::from_utf8_lossy(&self.out).into_owned()
    }

    /// Write the document to `path`, creating parent directories.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut f = fs::File::create(path)?;
        f.write_all(&self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_basic_rows() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(["1", "2"]);
        w.row(["x", "y"]);
        assert_eq!(w.to_string_lossy(), "a,b\n1,2\nx,y\n");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut w = CsvWriter::new(&["v"]);
        w.row(["has,comma"]);
        w.row(["has\"quote"]);
        assert_eq!(w.to_string_lossy(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
    }

    #[test]
    fn csv_accepts_numbers() {
        let mut w = CsvWriter::new(&["n", "f"]);
        w.row([format!("{}", 3), format!("{:.2}", 1.5)]);
        assert!(w.to_string_lossy().contains("3,1.50"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn csv_width_checked() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(["only"]);
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join("faas_metrics_test");
        let path = dir.join("x.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let back: Vec<i32> = serde_json::from_str(&body).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_write_to_creates_dirs() {
        let dir = std::env::temp_dir().join("faas_metrics_test_csv/deep");
        let path = dir.join("t.csv");
        let mut w = CsvWriter::new(&["a"]);
        w.row(["1"]);
        w.write_to(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join("faas_metrics_test_csv"));
    }
}
