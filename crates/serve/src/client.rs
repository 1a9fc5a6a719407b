//! Client side of the daemon protocol: connect with a timeout, send one
//! request per call, and optionally retry `Busy` answers with bounded
//! exponential backoff.

use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use lpat_core::hash::splitmix64;

use crate::net::Conn;
use crate::proto::{
    backoff_delay, decode_response, encode_request, read_frame, write_frame, Addr, ProtoError,
    Request, Response, DEFAULT_MAX_FRAME,
};

/// How a client retries `Busy` responses.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub max_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed. `None` derives one from the process id and an
    /// in-process counter; fix it for reproducible retry timing in
    /// tests. Jitter de-synchronizes clients that all got shed by the
    /// same overload spike, so they don't stampede back in lockstep.
    pub seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(400),
            seed: None,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based), given the
    /// server's `retry_after` hint: the larger of hint and exponential
    /// backoff, stretched by up to +50% of deterministic SplitMix64
    /// jitter drawn from `seed`.
    pub fn delay(&self, attempt: u32, hinted: Duration, seed: u64) -> Duration {
        let backoff = backoff_delay(self.base, attempt, self.cap);
        let d = hinted.max(backoff);
        // Uniform in [d, d + d/2): enough spread to break retry
        // convoys, never shorter than what the server asked for.
        let r = splitmix64(seed.wrapping_add(u64::from(attempt)));
        let extra_ns = (d.as_nanos() as u64 / 2)
            .checked_mul(r >> 32)
            .map(|x| x >> 32);
        d + Duration::from_nanos(extra_ns.unwrap_or(0))
    }
}

/// Per-process counter so two retry loops in one process jitter
/// differently even with identical policies.
fn derived_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64((u64::from(std::process::id()) << 32) | n)
}

/// A connected client. One request is in flight at a time (the protocol
/// is strictly request/response per connection).
pub struct Client {
    conn: Conn,
    max_frame: u32,
}

impl Client {
    /// Connect to `addr`, bounding TCP connection establishment by
    /// `timeout` (Unix sockets connect synchronously; the timeout bounds
    /// name resolution there too, trivially).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Io`] on resolution/connect failure or timeout.
    pub fn connect(addr: &Addr, timeout: Duration) -> Result<Client, ProtoError> {
        let conn = match addr {
            Addr::Tcp(hp) => {
                let mut last = None;
                let addrs = hp
                    .to_socket_addrs()
                    .map_err(|e| ProtoError::Io(format!("resolve {hp}: {e}")))?;
                let mut stream = None;
                for sa in addrs {
                    match TcpStream::connect_timeout(&sa, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                let s = stream.ok_or_else(|| {
                    ProtoError::Io(format!(
                        "connect {hp}: {}",
                        last.map(|e| e.to_string())
                            .unwrap_or_else(|| "no addresses".into())
                    ))
                })?;
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }
            #[cfg(unix)]
            Addr::Unix(path) => {
                let s = std::os::unix::net::UnixStream::connect(path)
                    .map_err(|e| ProtoError::Io(format!("connect {}: {e}", path.display())))?;
                Conn::Unix(s)
            }
            #[cfg(not(unix))]
            Addr::Unix(_) => {
                return Err(ProtoError::Io(
                    "unix sockets are not available on this platform".into(),
                ))
            }
        };
        Ok(Client {
            conn,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Send one request and wait for its response.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`] from framing, I/O, or response decoding.
    pub fn request(&mut self, req: &Request) -> Result<Response, ProtoError> {
        write_frame(&mut self.conn, &encode_request(req))?;
        self.conn
            .flush()
            .map_err(|e| ProtoError::Io(e.to_string()))?;
        let frame = read_frame(&mut self.conn, self.max_frame)?;
        decode_response(&frame)
    }

    /// Send a request, retrying `Busy` responses per `policy`. Each retry
    /// waits the larger of the server's `retry_after_ms` hint and the
    /// policy's exponential backoff — the server knows its load, the
    /// client knows its patience; respect both — plus up to +50%
    /// SplitMix64 jitter so shed clients don't return in lockstep.
    ///
    /// # Errors
    ///
    /// Protocol errors propagate immediately; exhausting `max_attempts`
    /// returns the final `Busy` response (an `Ok` at the protocol level —
    /// the server answered, it just declined).
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> Result<Response, ProtoError> {
        let attempts = policy.max_attempts.max(1);
        let seed = policy.seed.unwrap_or_else(derived_seed);
        let mut last = self.request(req)?;
        for attempt in 0..attempts.saturating_sub(1) {
            let Response::Busy { retry_after_ms, .. } = last else {
                return Ok(last);
            };
            let hinted = Duration::from_millis(u64::from(retry_after_ms));
            let delay = policy.delay(attempt, hinted, seed);
            // Surfaced as a trace instant so client-side tail latency is
            // attributable to backoff, not mistaken for server time.
            lpat_core::trace::instant_args(
                "serve.client",
                "retry",
                vec![
                    ("attempt", (attempt + 1).to_string()),
                    ("delay_ms", delay.as_millis().to_string()),
                    ("hint_ms", u64::from(retry_after_ms).to_string()),
                    ("rid", req.request_id.to_string()),
                ],
            );
            std::thread::sleep(delay);
            last = self.request(req)?;
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jittered_delay_is_deterministic_bounded_and_spread() {
        let policy = RetryPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        let hint = Duration::from_millis(50);
        // Deterministic in (attempt, hint, seed).
        assert_eq!(policy.delay(0, hint, 42), policy.delay(0, hint, 42));
        // Never below the un-jittered floor, never 1.5x past it.
        for seed in 0..64u64 {
            for attempt in 0..4 {
                let floor = backoff_delay(policy.base, attempt, policy.cap).max(hint);
                let d = policy.delay(attempt, hint, seed);
                assert!(
                    d >= floor,
                    "attempt {attempt} seed {seed}: {d:?} < {floor:?}"
                );
                assert!(
                    d <= floor + floor / 2 + Duration::from_nanos(1),
                    "attempt {attempt} seed {seed}: {d:?} too large"
                );
            }
        }
        // Different seeds actually spread (not all equal).
        let spread: std::collections::HashSet<Duration> =
            (0..16).map(|s| policy.delay(0, hint, s)).collect();
        assert!(spread.len() > 8, "jitter barely varies: {spread:?}");
        // The server's hint still dominates a small backoff.
        let big_hint = Duration::from_secs(2);
        assert!(policy.delay(0, big_hint, 7) >= big_hint);
    }
}
