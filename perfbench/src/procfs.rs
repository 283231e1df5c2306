//! Parsers for the `/proc` files the benchmark reads: process and thread
//! CPU time (`stat`), peak resident set size (`status`), and host-wide CPU
//! accounting including hypervisor steal (`/proc/stat`).

use std::time::Duration;

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/*/stat`
/// (`USER_HZ`, fixed at 100 on every mainstream Linux build).
pub const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time of a process or thread, and its minor page
/// faults (most of the system time a heap that shrinks and regrows costs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTime {
    pub user: Duration,
    pub sys: Duration,
    pub minor_faults: u64,
}

impl CpuTime {
    pub fn total(&self) -> Duration {
        self.user + self.sys
    }

    /// Time spent since `earlier`.
    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// CPU time from one `/proc/<pid>/stat` (or `/proc/thread-self/stat`)
/// line. The command name in field 2 may hold spaces and parentheses, so
/// fields are counted after its last `)`.
pub fn parse_stat_cpu(line: &str) -> Option<CpuTime> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the comm field: state(3) ppid(4) ... minflt(10) ... utime(14)
    // stime(15).
    let fields: Vec<&str> = rest.split_whitespace().take(13).collect();
    let ticks = |i: usize| -> Option<Duration> {
        let t: u64 = fields.get(i)?.parse().ok()?;
        Some(Duration::from_secs_f64(t as f64 / TICKS_PER_SEC))
    };
    Some(CpuTime {
        user: ticks(11)?,
        sys: ticks(12)?,
        minor_faults: fields[7].parse().ok()?,
    })
}

/// `VmHWM` (peak resident set size) in MiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate host CPU counters from the first (`cpu `) line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostCpu {
    /// Sum of user, nice, system, idle, iowait, irq, softirq and steal
    /// jiffies (guest time is already inside user).
    pub total: u64,
    /// Jiffies the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl HostCpu {
    /// Steal as a percentage of all host CPU time elapsed since `earlier`.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu ` line of `/proc/stat`.
pub fn parse_host_cpu(proc_stat: &str) -> Option<HostCpu> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    if vals.len() < 8 {
        return None;
    }
    Some(HostCpu {
        total: vals.iter().sum(),
        steal: vals[7],
    })
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// CPU time of the whole process so far (every thread, live or exited).
pub fn process_cpu() -> CpuTime {
    parse_stat_cpu(&read("/proc/self/stat")).expect("/proc/self/stat parses")
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> CpuTime {
    parse_stat_cpu(&read("/proc/thread-self/stat")).expect("/proc/thread-self/stat parses")
}

/// Peak resident set size of the process so far, in MiB.
pub fn vm_hwm_mb() -> f64 {
    parse_vm_hwm_mb(&read("/proc/self/status")).expect("VmHWM present")
}

/// Host-wide CPU counters right now.
pub fn host_cpu() -> HostCpu {
    parse_host_cpu(&read("/proc/stat")).expect("/proc/stat parses")
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_and_parens_in_comm() {
        let line = "4242 (shard (1) x) S 1 2 3 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 4 0 \
                    238502 2703360 335 18446744073709551615";
        let cpu = parse_stat_cpu(line).unwrap();
        assert_eq!(cpu.user, Duration::from_millis(2500));
        assert_eq!(cpu.sys, Duration::from_millis(750));
        assert_eq!(cpu.total(), Duration::from_millis(3250));
        assert_eq!(cpu.minor_faults, 100);
        let later = CpuTime {
            user: Duration::from_millis(2600),
            sys: Duration::from_millis(760),
            minor_faults: 130,
        };
        assert_eq!(later.since(&cpu).total(), Duration::from_millis(110));
        assert_eq!(later.since(&cpu).minor_faults, 30);
    }

    #[test]
    fn stat_line_truncated_is_none() {
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no comm here"), None);
    }

    #[test]
    fn vm_hwm_in_mib() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t  363520 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(355.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn host_cpu_and_steal_share() {
        let a =
            parse_host_cpu("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n").unwrap();
        assert_eq!(
            a,
            HostCpu {
                total: 1000,
                steal: 35
            }
        );
        let b = parse_host_cpu("cpu  150 0 70 1030 10 0 5 60 0 0\n").unwrap();
        // 25 steal jiffies of 325 elapsed.
        assert!((b.steal_pct_since(&a) - 100.0 * 25.0 / 325.0).abs() < 1e-12);
        assert_eq!(a.steal_pct_since(&a), 0.0);
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
    }
}
