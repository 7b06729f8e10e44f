//! Process accounting from `/proc/self`: CPU time and peak resident set.

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. Fields
/// are counted after the closing parenthesis of the command name, which
/// may itself contain spaces and parentheses.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// User plus system CPU seconds of this process, all threads included
/// (exited ones too).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = parse_status_kb(&status, "VmHWM").expect("/proc/self/status has VmHWM");
    kb as f64 / 1024.0
}
