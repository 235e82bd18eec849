//! The machine and the process: environment scrubbing, the canary, peak
//! memory, scratch directories.

use crate::report::Host;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// `benchmark/`, where the binary was built from. Results, expected values
/// and scratch all live below it, so a run reads and writes nothing else.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Remove every `PF_*` switch, so the program runs as configured here and
/// not as the caller's shell happens to be set up.
pub fn scrub_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PF_"))
        .collect();
    for k in names {
        std::env::remove_var(k);
    }
}

/// Point the program's caches at fresh directories below `scratch`, so
/// set-up is always cold, and the temporary files of the `rustc` it starts
/// there too, so nothing is written elsewhere. Returns the checkpoint root.
pub fn isolate_caches(scratch: &Path) -> std::io::Result<PathBuf> {
    for (var, sub) in [
        ("PF_NATIVE_CACHE_DIR", "native"),
        ("PF_TUNE_CACHE_DIR", "tune"),
        ("TMPDIR", "tmp"),
    ] {
        let dir = scratch.join(sub);
        std::fs::create_dir_all(&dir)?;
        std::env::set_var(var, &dir);
    }
    let ckpt = scratch.join("ckpt");
    std::fs::create_dir_all(&ckpt)?;
    Ok(ckpt)
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn l3_bytes() -> u64 {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .unwrap_or_default();
    let t = text.trim();
    let (digits, unit) = t.split_at(t.find(|c: char| !c.is_ascii_digit()).unwrap_or(t.len()));
    let n: u64 = digits.parse().unwrap_or(0);
    match unit {
        "K" => n << 10,
        "M" => n << 20,
        _ => n,
    }
}

const COPY_BYTES: usize = 256 << 20;

/// Median rate of three 256 MiB copies (after one pass that faults the
/// pages in).
fn copy_gb_s() -> f64 {
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    dst.copy_from_slice(&src);
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            COPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[1]
}

pub fn probe() -> Host {
    Host {
        rustc: first_line_of(Command::new("rustc").arg("--version"))
            .unwrap_or_else(|| "unknown".into()),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_commit: first_line_of(
            Command::new("git")
                .arg("-C")
                .arg(bench_dir())
                .args(["rev-parse", "HEAD"]),
        )
        .unwrap_or_else(|| "unknown".into()),
        copy_gb_s: copy_gb_s(),
        copy_bytes: COPY_BYTES as u64,
        l3_bytes: l3_bytes(),
    }
}
