//! What the benchmark reads about its own process and machine: CPU time,
//! peak memory, hypervisor steal, cache sizes, and a fixed calibration loop.
//! Linux `/proc` and `/sys` only; a missing file reads as "unknown", never
//! as an error, so the benchmark still runs elsewhere.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which is 100 on
/// every Linux ABI this benchmark can run on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads summed
/// (exited ones included).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 and 15, counted after the parenthesised command name.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_SECOND
}

/// Peak resident set of this process (`VmHWM`), KiB.
pub fn peak_rss_kb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// `(steal, total)` jiffies of the whole machine since boot.
pub fn machine_jiffies() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user, so the first eight sum to the total.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

/// The caches of cpu0 as `(level+type, size)` strings, e.g. `("L2", "2048K")`.
pub fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{level}{suffix}"), size));
    }
    out
}

/// Wall seconds of a fixed integer loop (about 50 ms on this machine). The
/// work never changes, so any spread between calls is the machine's.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..24_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}
