//! Running the program under test: `padfa` as a child process, with
//! default flags only, timed and measured from outside.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};

/// `struct rusage` on 64-bit Linux (the only target the benchmark
/// supports; it also reads `/proc`): two `timeval`s, then 14 longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// One finished `padfa` invocation.
pub struct Finished {
    pub status: ExitStatus,
    pub stdout: Vec<u8>,
    /// Peak resident set of the child, from `wait4`'s rusage.
    pub peak_rss_kb: u64,
}

/// The knobs a user's environment could leak into a child; every child
/// runs without them.
const CLEARED_ENV: [&str; 3] = ["PADFA_STORE", "PADFA_NO_FLIGHT", "PADFA_FORCE_GENERAL_TIER"];

fn command(bin: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args).stdin(Stdio::null());
    for key in CLEARED_ENV {
        cmd.env_remove(key);
    }
    cmd
}

/// Run `padfa <args>` to completion: spawn, drain stdout, reap. The
/// caller times the call — that is what a user waits for. stderr is
/// inherited so a failing child explains itself in the benchmark's own
/// stderr.
pub fn run(bin: &Path, args: &[String]) -> Result<Finished, String> {
    let mut child = command(bin, args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are valid for writes for the whole
    // call, `Rusage` has the kernel's layout for this target, and the
    // pid is our own unreaped child (nothing else waits on it: the
    // `Child` is dropped without `wait`).
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if reaped != child.id() as i32 {
        return Err(format!("wait4 on padfa {args:?} failed"));
    }
    read.map_err(|e| format!("reading padfa stdout: {e}"))?;
    Ok(Finished {
        status: ExitStatus::from_raw(status),
        stdout,
        peak_rss_kb: usage.maxrss.max(0) as u64,
    })
}

/// A running `padfa serve --addr 127.0.0.1:0 --workers 1`.
pub struct Server {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    stderr_path: PathBuf,
    stopped: bool,
}

impl Server {
    /// Start the daemon and wait for its banner (printed once the
    /// listener is bound). `stderr_path` receives the drain report.
    pub fn start(bin: &Path, stderr_path: &Path) -> Result<Server, String> {
        let stderr = std::fs::File::create(stderr_path)
            .map_err(|e| format!("cannot create {}: {e}", stderr_path.display()))?;
        let args = ["serve", "--addr", "127.0.0.1:0", "--workers", "1"].map(String::from);
        let mut child = command(bin, &args)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut banner = String::new();
        let addr = match stdout.read_line(&mut banner) {
            Ok(n) if n > 0 => banner
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "padfa serve printed no address (banner: {banner:?})"
            ));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            stderr_path: stderr_path.to_path_buf(),
            stopped: false,
        })
    }

    /// A `Vm*` field of `/proc/<pid>/status`, in KiB.
    pub fn vm_kb(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
    }

    /// SIGTERM, wait, and demand a clean drain: exit code 0 and
    /// `clean=true` in the drain report.
    pub fn stop(mut self) -> Result<(), String> {
        self.stopped = true;
        // SAFETY: plain syscall on the pid of our own live child.
        if unsafe { kill(self.child.id() as i32, SIGTERM) } != 0 {
            return Err("cannot signal padfa serve".to_string());
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for padfa serve: {e}"))?;
        let report = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        if !status.success() || !report.contains("clean=true") {
            return Err(format!(
                "padfa serve did not drain cleanly ({status}): {}",
                report.trim()
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    /// A run that fails half way still leaves no daemon behind.
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// This process's own high-water resident set, in KiB. On Linux a
/// child's `ru_maxrss` starts from its parent's at `exec`, so the
/// harness must stay smaller than the children it measures; the report
/// prints this beside `peak_rss_mb` so a reader can check.
pub fn own_peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}
