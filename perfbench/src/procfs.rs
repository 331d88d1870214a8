//! Std-only readers for this process's CPU time and peak resident memory,
//! from Linux `/proc/self`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/*/stat`.
/// Linux reports these in `USER_HZ`, which is 100 on every supported
/// architecture regardless of the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// User + system CPU ticks from the text of a `/proc/<pid>/stat` file.
///
/// The second field is the command name in parentheses, and the name itself
/// may contain spaces and parentheses, so the numeric fields are read only
/// after the *last* `)`.  After it come `state` (field 3) and then the
/// numbers; `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// `VmHWM` (peak resident set size) in kibibytes from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// CPU seconds (user + system, all threads, live or exited) this process
/// has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / USER_HZ
}

/// Peak resident memory of this process since start or since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM");
    kib as f64 / 1024.0
}

/// Reset the peak-RSS watermark to the current resident size, so the next
/// [`peak_rss_mb`] reads the peak of what ran in between.  Writing `5` to
/// `clear_refs` resets `VmHWM` (Linux 4.0 and later).
pub fn reset_peak_rss() {
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT_TAIL: &str = "R 7036 7042 7036 0 -1 4194304 80 0 0 0 1234 56 0 0 20 0 \
                             3 0 572516 2703360 284 18446744073709551615 0";

    #[test]
    fn stat_reader_sums_utime_and_stime() {
        let stat = format!("7042 (perfbench) {STAT_TAIL}");
        assert_eq!(parse_stat_cpu_ticks(&stat), Some(1290));
    }

    #[test]
    fn stat_reader_splits_after_the_last_paren() {
        // A command name with spaces and parentheses would shift every
        // field if the line were split on whitespace or the first `)`.
        for comm in ["(a b)", "(x) 1 2 3 (y)", "())", "( )"] {
            let stat = format!("99 ({comm}) {STAT_TAIL}");
            assert_eq!(parse_stat_cpu_ticks(&stat), Some(1290), "comm {comm:?}");
        }
    }

    #[test]
    fn stat_reader_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren here"), None);
        assert_eq!(parse_stat_cpu_ticks(""), None);
    }

    #[test]
    fn status_reader_finds_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t    2976 kB\nVmRSS:\t 1664 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2976));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1664 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        reset_peak_rss();
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        assert!(
            peak_rss_mb() >= 64.0,
            "a touched 64 MiB block raises the peak"
        );
        drop(block);
    }
}
