//! Running the release `cape` binary the way a user does: `cape mine
//! --save`, then `cape serve --store ... --listen 127.0.0.1:0`.
//!
//! Every child is killed and reaped when its guard drops, on every exit
//! path including panics, and is also asked to die with this process
//! should it be killed outright.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Longest wait for `cape serve` to print its `listening on` line.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(150);

/// A child process killed and reaped on drop.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn command(cape: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(cape);
    cmd.args(args).stdin(Stdio::null());
    // SAFETY: the closure runs in the forked child before exec and only
    // calls prctl, which is async-signal-safe and takes plain integers.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
    cmd
}

/// The mining flags the benchmark passes to `cape mine`, pinned so the
/// in-process replay mines with exactly the same thresholds.
pub const MINE_FLAGS: [(&str, &str); 5] =
    [("theta", "0.15"), ("delta", "4"), ("lambda", "0.3"), ("support", "3"), ("psi", "3")];

/// Worker threads `cape serve` is started with (its default, pinned so
/// the in-process replay starts the same pool).
pub const SERVE_THREADS: usize = 2;
/// Drill-cache entries `cape serve` is started with (its default).
pub const SERVE_CACHE: usize = 4096;

/// Run `cape mine --csv CSV --schema SPEC [--exclude COLS] --save STORE`
/// to completion.
pub fn mine(
    cape: &Path,
    csv: &Path,
    schema: &str,
    exclude: &[&str],
    store: &Path,
) -> Result<(), String> {
    let mut args = vec![
        "mine".to_string(),
        "-q".into(),
        "--csv".into(),
        csv.display().to_string(),
        "--schema".into(),
        schema.to_string(),
        "--save".into(),
        store.display().to_string(),
    ];
    for (flag, value) in MINE_FLAGS {
        args.push(format!("--{flag}"));
        args.push(value.to_string());
    }
    if !exclude.is_empty() {
        args.push("--exclude".into());
        args.push(exclude.join(","));
    }
    let child = command(cape, &args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", cape.display()))?;
    let mut child = Reaped(child);
    let mut stderr = String::new();
    if let Some(mut pipe) = child.0.stderr.take() {
        use std::io::Read;
        let _ = pipe.read_to_string(&mut stderr);
    }
    let status = child.0.wait().map_err(|e| format!("cape mine: {e}"))?;
    if !status.success() {
        return Err(format!("cape mine failed ({status}): {}", stderr.trim()));
    }
    Ok(())
}

/// A running `cape serve`, killed and reaped on drop.
pub struct Server {
    child: Reaped,
    /// The address read from its `listening on` line.
    pub addr: SocketAddr,
}

impl Server {
    /// Start `cape serve` over `store` and wait until it prints
    /// `listening on ADDR`.
    pub fn start(
        cape: &Path,
        csv: &Path,
        schema: &str,
        store: &Path,
        name: &str,
    ) -> Result<Server, String> {
        let args: Vec<String> = [
            "serve",
            "-q",
            "--listen",
            "127.0.0.1:0",
            "--csv",
            &csv.display().to_string(),
            "--schema",
            schema,
            "--store",
            &store.display().to_string(),
            "--name",
            name,
            "--threads",
            &SERVE_THREADS.to_string(),
            "--cache",
            &SERVE_CACHE.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let child = command(cape, &args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cape.display()))?;
        let mut child = Reaped(child);
        let stdout = child.0.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader ends at the listening line or at EOF, whichever
        // comes first; the server prints nothing else to stdout.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(Ok(addr.trim().to_string()));
                    return;
                }
            }
            let _ = tx.send(Err("cape serve exited before listening".to_string()));
        });
        let got = rx.recv_timeout(LISTEN_TIMEOUT);
        let addr = match got {
            Ok(Ok(addr)) => addr,
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                drop(child); // kill, so the reader sees EOF
                let _ = reader.join();
                return Err(format!("cape serve did not listen within {LISTEN_TIMEOUT:?}"));
            }
        };
        let _ = reader.join();
        let addr = addr.parse().map_err(|e| format!("bad listening address `{addr}`: {e}"))?;
        Ok(Server { child, addr })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }
}

/// Time one cold start: `cape mine --save` into `dir`, then `cape serve`
/// until it listens. Returns the server and the elapsed seconds.
pub fn cold_start(
    cape: &Path,
    csv: &Path,
    schema: &str,
    exclude: &[&str],
    dir: &Path,
    name: &str,
) -> Result<(Server, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = dir.join("store.cape");
    let t0 = Instant::now();
    mine(cape, csv, schema, exclude, &store)?;
    let server = Server::start(cape, csv, schema, &store, name)?;
    Ok((server, t0.elapsed().as_secs_f64()))
}
