//! What the harness reads from the host: peak memory and a fingerprint.

use std::process::Command;

use crate::json::Value;

/// `VmHWM` (peak resident set) out of a `/proc/<pid>/status` text, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process so far, in MiB (0 where `/proc` does
/// not exist — the check that follows then fails the run, loudly).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine a result file was measured on. Two files with different
/// fingerprints can be compared, but `compare` says so first.
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("cpu".into(), Value::Str(cpu)),
        ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
        (
            "commit".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t 2000000 kB\nVmHWM:\t 1180152 kB\nVmRSS:\t   900 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(1180152.0 / 1024.0));
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib(""), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mib() > 0.0);
    }
}
