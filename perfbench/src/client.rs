//! The load generator's side of `diogenes serve`: a keep-alive HTTP/1.1
//! client and a handle on a spawned daemon process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket read/write timeout: far above any response time, so a hung
/// daemon fails the run instead of stalling it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One client connection, reused across requests (`Connection:
/// keep-alive`) and reopened when the daemon closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, buf: Vec::new() }
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        let reused = self.stream.is_some();
        match self.exchange(method, path, body) {
            Ok(r) => Ok(r),
            // A kept-alive connection the daemon has since dropped: retry
            // once on a fresh one.
            Err(_) if reused => self.exchange(method, path, body),
            Err(e) => Err(e),
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        let out = self.exchange_io(method, path, body);
        if out.is_err() {
            self.stream = None;
        }
        out.map_err(|e| format!("{method} {path}: {e}"))
    }

    fn exchange_io(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;

        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line in {head:?}")))?;
        let mut len = 0usize;
        let mut close = false;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else { continue };
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                len = v.parse().map_err(|_| std::io::Error::other("bad content-length"))?;
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            let mut chunk = [0u8; 64 * 1024];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        if close {
            self.stream = None;
        }
        Ok(Response { status, body })
    }
}

/// A `diogenes serve` child process with its own fresh cache directory.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    cache: PathBuf,
    drain: Option<JoinHandle<()>>,
    /// Seconds from spawn until the daemon accepted a connection.
    pub ready_s: f64,
}

impl Daemon {
    pub fn spawn(
        exe: &Path,
        cache: &Path,
        jobs: usize,
        executors: usize,
    ) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(cache);
        std::fs::create_dir_all(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", &jobs.to_string()])
            .args(["--executors", &executors.to_string(), "--cache-dir"])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if out.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            addr = line
                .trim()
                .strip_prefix("diogenes serve: listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok());
        }
        // Keep draining stdout so the daemon can never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        let mut d = Daemon {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            cache: cache.into(),
            drain: Some(drain),
            ready_s: 0.0,
        };
        let Some(addr) = addr else {
            return Err("daemon exited before announcing its address".to_string());
        };
        d.addr = addr;
        while TcpStream::connect(addr).is_err() {
            if t0.elapsed() > IO_TIMEOUT {
                return Err(format!("daemon never accepted on {addr}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        d.ready_s = t0.elapsed().as_secs_f64();
        Ok(d)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain and stop the daemon (`POST /shutdown`), wait for it to
    /// exit, and remove its cache directory.
    pub fn shutdown(mut self) -> Result<(), String> {
        // The daemon can exit before its reply to this request is
        // written, so a lost reply is not an error; its exit status is.
        if let Ok(resp) = Conn::new(self.addr).request("POST", "/shutdown", b"") {
            if resp.status != 200 {
                return Err(format!("shutdown answered {}", resp.status));
            }
        }
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() < IO_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not drain in time".to_string()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache);
    }
}
