//! Host shape and process resource readings (Linux `/proc`).

use std::fmt::Write as _;

/// What a result depends on beyond the code: CPUs, worker count,
/// compiler.
pub struct HostShape {
    pub nproc: usize,
    pub max_threads: usize,
    pub bdsm_threads: Option<String>,
    pub rustc: &'static str,
    pub cpu_model: String,
}

impl HostShape {
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostShape {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            max_threads: bdsm_core::par::max_threads(),
            bdsm_threads: std::env::var("BDSM_THREADS").ok(),
            rustc: env!("PERFBENCH_RUSTC"),
            cpu_model,
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"nproc\": {}, \"par_max_threads\": {}, \"bdsm_threads\": {}, \
             \"rustc\": \"{}\", \"cpu_model\": \"{}\"}}",
            self.nproc,
            self.max_threads,
            self.bdsm_threads
                .as_ref()
                .map_or("null".to_string(), |v| format!("\"{}\"", escape(v))),
            escape(self.rustc),
            escape(&self.cpu_model),
        );
        s
    }
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`. The kernel reports them in `USER_HZ` ticks, which
/// Linux fixes at 100 per second for this interface.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let h = HostShape::read();
        assert!(h.nproc >= 1 && h.max_threads >= 1);
        assert!(h.to_json().starts_with("{\"nproc\""));
    }
}
