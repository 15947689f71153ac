//! The `perfvar` binary as a child process — one-shot subcommands and
//! the `serve` daemon — plus the resource readings taken from outside.
//!
//! Peak memory is each child's own `VmHWM` from `/proc/<pid>/status`:
//! sampled every [`SAMPLE_EVERY`] while a subcommand runs, read once
//! before a daemon is killed. (`getrusage(RUSAGE_CHILDREN)` would be
//! exact at exit, but the kernel carries the parent's own high-water
//! mark into every child it spawns, so it reports the benchmark's size
//! rather than `perfvar`'s.)

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How often a running subcommand's `VmHWM` is read.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// Largest `VmHWM` (KiB) seen on any `perfvar` child so far.
static PEAK_KIB: AtomicU64 = AtomicU64::new(0);

/// The largest peak resident set size, in MB, of any `perfvar` process
/// this run has started.
pub fn peak_rss_mb() -> f64 {
    PEAK_KIB.load(Ordering::SeqCst) as f64 / 1024.0
}

/// `VmHWM` in KiB from a `/proc/<pid>/status` text; `None` when absent
/// (a process that has already released its memory).
pub fn vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

fn sample_peak(pid: u32) {
    if let Some(kib) = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .as_deref()
        .and_then(vmhwm_kib)
    {
        PEAK_KIB.fetch_max(kib, Ordering::SeqCst);
    }
}

/// Hands the heap's free memory back to the kernel (glibc's
/// `malloc_trim`) and keeps large allocations fresh mappings, so an
/// in-process replica of a CLI operation pays the first-touch page
/// faults that a fresh `perfvar` process pays.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: neither call takes pointers; malloc_trim only releases
        // memory the allocator holds as free, and mallopt only pins the
        // size above which allocations are fresh mappings (its default,
        // which glibc would otherwise raise after the first large free).
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            malloc_trim(0);
        }
    }
}

/// The `perfvar` executable the benchmark drives.
pub struct Perfvar {
    bin: PathBuf,
}

impl Perfvar {
    /// Finds `perfvar` next to the running executable (both are built
    /// into the same target directory).
    pub fn locate() -> Result<Perfvar, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let bin = exe.with_file_name("perfvar");
        if bin.is_file() {
            Ok(Perfvar { bin })
        } else {
            Err(format!("no perfvar binary at {}", bin.display()))
        }
    }

    /// Runs `perfvar <args>` to completion, sampling its peak memory, and
    /// returns its stdout; a non-zero exit is an error carrying stderr.
    pub fn run(&self, args: &[&str]) -> Result<Vec<u8>, String> {
        let child = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run perfvar: {e}"))?;
        // `spawn` returns once the child has exec'd, so every sample
        // reads perfvar's own memory.
        let pid = child.id();
        let done = AtomicBool::new(false);
        let out = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    sample_peak(pid);
                    std::thread::park_timeout(SAMPLE_EVERY);
                }
            });
            let out = child.wait_with_output();
            done.store(true, Ordering::SeqCst);
            sampler.thread().unpark();
            out
        })
        .map_err(|e| format!("perfvar {}: {e}", args.join(" ")))?;
        if out.status.success() {
            Ok(out.stdout)
        } else {
            Err(format!(
                "perfvar {} failed ({}): {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        }
    }
}

/// A running `perfvar serve` child; its peak memory is recorded and it
/// is killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Kept open: the daemon must never write into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the daemon listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `perfvar serve` on an ephemeral port with the benchmark's
    /// pinned thread count and waits until `/v1/health` answers.
    pub fn start(perfvar: &Perfvar) -> Result<Daemon, String> {
        let threads = crate::THREADS.to_string();
        let mut child = Command::new(&perfvar.bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", &threads])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start perfvar serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        read.map_err(|e| format!("perfvar serve printed no address: {e}"))?;
        daemon.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected perfvar serve banner {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match crate::http::get(&daemon.addr, "/v1/health") {
                Ok(resp) if resp.status == 200 => return Ok(daemon),
                _ if Instant::now() > deadline => {
                    return Err("perfvar serve never answered /v1/health".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// CPU seconds (user + system) the daemon has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        cpu_seconds_of_stat(&stat).ok_or_else(|| format!("{path}: unexpected format"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        sample_peak(self.child.id());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100
/// per second by the kernel ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`: utime and stime are fields 14 and 15.
pub fn cpu_seconds_of_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parser_reads_the_high_water_line() {
        let status =
            "Name:\tperfvar\nVmPeak:\t  300000 kB\nVmHWM:\t   43212 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(vmhwm_kib(status), Some(43_212));
        // A zombie's status has no memory lines.
        assert_eq!(vmhwm_kib("Name:\tperfvar\nState:\tZ (zombie)\n"), None);
        assert_eq!(vmhwm_kib("VmHWM:\t garbage kB\n"), None);
        assert_eq!(vmhwm_kib("VmHWM:\t 12 MB\n"), None);
        let own = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(vmhwm_kib(&own).unwrap() > 0);
    }

    #[test]
    fn stat_parser_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (perf var) x) S 1 4242 4242 0 -1 4194560 913 0 0 0 \
                    250 37 0 0 20 0 9 0 12345 1000 200 18446744073709551615";
        assert_eq!(cpu_seconds_of_stat(stat), Some(2.87));
        assert_eq!(cpu_seconds_of_stat("4242 (perfvar) S 1 2"), None);
        assert_eq!(cpu_seconds_of_stat("no parenthesis"), None);
        let own = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(cpu_seconds_of_stat(&own).is_some());
    }
}
