//! Statistics, provenance and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The nearest-rank `q`-quantile of ascending samples (0 when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a, 64 bit: a stable digest for signatures and the source rev.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes bytes in.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a little-endian `u64` in.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference kernel's wall time on an uncontended core of the 2-CPU
/// machine the benchmark was sized on. Wall-clock metrics are reported
/// at this machine speed; see [`speed_scale`].
pub const REFERENCE_S: f64 = 0.0065;

/// How strongly the measured wall times follow the kernel's when the
/// machine slows. Fitted on the sizing machine, with a third, since
/// dropped workload: over 27 runs, log throughput fell by 0.45 to 0.83
/// per unit of log kernel time; over three batches of ten runs per
/// workload, 0.5 gave the smallest worst-case spread of the set-up and
/// subscribe figures.
pub const SENSITIVITY: f64 = 0.5;

/// Times a fixed kernel that shares no code with the measured program
/// and returns its wall seconds: random reads and writes over 2 MiB,
/// then building and walking an ordered map of 6000 formatted strings.
///
/// The machine's speed drifts by up to 2x over seconds when other
/// tenants load it. The drift shows as slower execution, not as time
/// off the CPU, and it hits memory-bound and allocation-heavy code (as
/// the alerting service is) while leaving cache-resident arithmetic
/// alone, so the kernel is made of the former. Running it next to each
/// timed segment measures the speed that segment ran at.
pub fn reference_kernel() -> f64 {
    let mut v: Vec<u64> = (0..1u64 << 18).collect();
    let n = v.len();
    let started = std::time::Instant::now();
    let mut acc = 0u64;
    for r in 0..8 {
        for i in 0..n {
            let j = (i * 7919 + r) % n;
            acc = acc.wrapping_add(v[j]);
            v[i] = acc ^ i as u64;
        }
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..6000u32 {
        map.insert(
            format!("key-{}-{i}", i.wrapping_mul(2_654_435_761)),
            vec![i; 4],
        );
    }
    for (k, v) in &map {
        acc = acc.wrapping_add((k.len() + v.len()) as u64);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// The factor that scales a wall time measured while the reference
/// kernel took `kernel_s` to the reference speed: multiply times by it,
/// divide rates by it.
pub fn speed_scale(kernel_s: f64) -> f64 {
    (REFERENCE_S / kernel_s).powf(SENSITIVITY)
}

/// Logical CPUs available to the process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A revision of the measured source that needs no version control:
/// FNV-1a over the path and bytes of every file under `crates/` and the
/// benchmark's `src/`, in path order.
pub fn source_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [root.join("../crates"), root.join("src")] {
        collect_files(&dir, &mut files);
    }
    files.sort();
    let mut hash = Fnv::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        hash.write(rel.to_string_lossy().as_bytes());
        hash.write(&std::fs::read(file).unwrap_or_default());
    }
    format!("src-fnv64-{:016x}", hash.finish())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: the shortest text that reads back as the same `f64`
/// (all its digits); non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("a.b", 1.25, "ms"), metric("c", 2.0, "s")],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a.b": {"value": 1.25, "unit": "ms"}, "c": {"value": 2, "unit": "s"}}}"#
        );
        assert_eq!(json_str("a\"b\\\n"), r#""a\"b\\\u000a""#);
    }
}
