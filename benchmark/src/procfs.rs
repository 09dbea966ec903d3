//! `/proc/self` sampler: CPU time, context switches and peak resident
//! set of the workload's own process (client, server and simulator
//! threads alike — one process per workload).

use crate::report::Outcome;
use std::fs;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// utime + stime of the whole process, in seconds.
    pub cpu_s: f64,
    /// Voluntary context switches summed over the live threads.
    pub vol_ctx: u64,
}

impl ProcSample {
    /// Take a sample. Threads that have already exited keep their CPU
    /// time (the process total holds it) but lose their switch counts,
    /// so sample while the threads of interest are alive.
    pub fn now() -> ProcSample {
        ProcSample {
            cpu_s: cpu_seconds(&fs::read_to_string("/proc/self/stat").unwrap_or_default()),
            vol_ctx: live_threads_vol_ctx(),
        }
    }

    /// The `proc.*` layer metrics of a phase of `ops` ops that took
    /// `wall_s` seconds between `earlier` and this sample.
    pub fn report_since(&self, earlier: &ProcSample, wall_s: f64, ops: f64, out: &mut Outcome) {
        let cpu_s = self.cpu_s - earlier.cpu_s;
        let switches = self.vol_ctx.saturating_sub(earlier.vol_ctx);
        out.set("proc.cpu_ms_per_op", cpu_s * 1e3 / ops);
        out.set("proc.cpu_per_wall", cpu_s / wall_s);
        out.set("proc.vol_ctx_switches_per_op", switches as f64 / ops);
    }
}

/// `utime + stime` out of one `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
fn cpu_seconds(stat: &str) -> f64 {
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) as f64 / TICKS_PER_S
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn live_threads_vol_ctx() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "voluntary_ctxt_switches"))
        .sum()
}

/// `VmHWM`, the peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name_parses() {
        let line = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 \
                    150 50 0 0 20 0 3 0 1000 1 1";
        assert_eq!(cpu_seconds(line), 2.0);
        assert_eq!(cpu_seconds(""), 0.0);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(s, "VmHWM"), Some(2048));
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(s, "VmSwap"), None);
    }

    #[test]
    fn the_live_process_has_a_peak_and_a_main_thread() {
        assert!(peak_rss_mb() > 0.0);
        let (a, b) = (ProcSample::now(), ProcSample::now());
        assert!(b.cpu_s >= a.cpu_s && b.vol_ctx >= a.vol_ctx);
    }
}
