//! The loopback client and the daemon it drives.

use crate::stats::Spans;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One response, timed at the client from `connect()` to its last byte.
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub latency: Duration,
}

/// Sends one request on a fresh connection and reads the whole answer;
/// with `trace`, records connect / write / read spans under one request
/// span for body `trace.1`.
pub fn send(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    mut trace: Option<(&mut Spans, usize)>,
) -> Result<Reply, String> {
    let request = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: text/plain\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let start = Instant::now();
    let span = |spans: &mut Option<(&mut Spans, usize)>, name, parent| {
        spans.as_mut().map(|(s, b)| s.enter(name, parent, *b))
    };
    let close = |spans: &mut Option<(&mut Spans, usize)>, id: Option<usize>| {
        if let (Some((s, _)), Some(id)) = (spans.as_mut(), id) {
            s.exit(id);
        }
    };
    let op = span(&mut trace, "http.request", None);
    let phase = span(&mut trace, "http.connect", op);
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    close(&mut trace, phase);
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let phase = span(&mut trace, "http.write", op);
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write {target}: {e}"))?;
    close(&mut trace, phase);
    let phase = span(&mut trace, "http.read", op);
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut need: Option<(usize, usize)> = None; // (head length, body length)
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {target}: {e}"))?;
        buf.extend_from_slice(&chunk[..n]);
        if need.is_none() {
            if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
                let len = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| format!("{target}: response without content-length"))?;
                need = Some((end + 4, len));
            }
        }
        if let Some((head, len)) = need {
            if buf.len() >= head + len {
                let latency = start.elapsed();
                close(&mut trace, phase);
                close(&mut trace, op);
                let status = String::from_utf8_lossy(&buf[..head])
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("{target}: bad status line"))?;
                let body = String::from_utf8_lossy(&buf[head..head + len]).into_owned();
                return Ok(Reply {
                    status,
                    body,
                    latency,
                });
            }
        }
        if n == 0 {
            return Err(format!("{target}: connection closed mid-response"));
        }
    }
}

/// A live `fmperf serve` on a free loopback port.
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<ChildStdout>,
    stderr: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    pub pid: u32,
    /// Requests this client sent (each is one connection).
    pub sent: u64,
    /// `timings.compile_ns` (µs) of every answer that compiled.
    pub compiles_us: Vec<f64>,
}

impl Daemon {
    /// Spawns the daemon and waits for a 200 from `/readyz`.
    pub fn spawn(fmperf: &Path, threads: usize, cache_mb: usize) -> Result<Daemon, String> {
        let mut child = Command::new(fmperf)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .arg("--cache-mb")
            .arg(cache_mb.to_string())
            .args(["--default-budget-ms", "60000", "--queue-depth", "64"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", fmperf.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take();
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let (tx, rx) = mpsc::channel();
        // Reads the listening line, then keeps draining stderr so the
        // daemon never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            stdout,
            stderr: Some(reader),
            addr: "127.0.0.1:0".parse().expect("literal address"),
            pid,
            sent: 0,
            compiles_us: Vec::new(),
        };
        let line = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "daemon did not report its address".to_string())?;
        daemon.addr = line
            .split_whitespace()
            .find_map(|t| t.parse::<SocketAddr>().ok())
            .ok_or_else(|| format!("no address in `{line}`"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match daemon.request("GET", "/readyz", "") {
                Ok(r) if r.status == 200 => break,
                _ if Instant::now() > deadline => return Err("daemon never became ready".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok(daemon)
    }

    /// One request; connections that fail before the daemon sees them
    /// are not counted.
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> Result<Reply, String> {
        self.request_traced(method, target, body, None)
    }

    /// [`request`](Daemon::request) with client-side spans.
    pub fn request_traced(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
        trace: Option<(&mut Spans, usize)>,
    ) -> Result<Reply, String> {
        let r = send(self.addr, method, target, body, trace);
        if r.is_ok() {
            self.sent += 1;
        }
        r
    }

    /// The scalar series of `/metrics` (name without labels → value).
    pub fn metrics(&mut self) -> Result<Vec<(String, f64)>, String> {
        let r = self.request("GET", "/metrics", "")?;
        Ok(r.body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains('{'))
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect())
    }

    /// Drains the daemon with `POST /quitquitquit`, waits for it, and
    /// checks that its drain report accounts for every request sent.
    pub fn quit(mut self) -> Result<(), String> {
        let r = self.request("POST", "/quitquitquit", "")?;
        if r.status != 200 {
            return Err(format!("quitquitquit answered {}", r.status));
        }
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        let status = child.wait().map_err(|e| e.to_string())?;
        let mut out = String::new();
        if let Some(mut s) = self.stdout.take() {
            s.read_to_string(&mut out).map_err(|e| e.to_string())?;
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        // "drained: N request(s) served, S shed, P panic(s) caught"
        let nums: Vec<u64> = out
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect();
        match nums[..] {
            [served, 0, 0] if served == self.sent => Ok(()),
            _ => Err(format!(
                "drain report `{}` does not account for the {} requests sent",
                out.trim(),
                self.sent
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
