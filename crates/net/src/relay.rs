//! A controllable chaos TCP relay for fault-injection tests.
//!
//! A [`FaultRelay`] sits between a client (or a router) and one
//! upstream server, forwarding bytes while mistreating them on demand:
//! splitting streams at arbitrary boundaries, delaying delivery,
//! cutting connections after a byte budget, refusing new connections,
//! or killing every live connection at once. The relay's own listening
//! address is *stable* — tests park a router on it, then restart the
//! backend behind it on a fresh port via [`FaultRelay::set_upstream`],
//! exactly the "shard came back somewhere else" shape a real tier must
//! survive.
//!
//! The per-connection mistreatment schedule ([`RelayPlan`]) is the one
//! the protocol-level fault tests established: budgets make connection
//! death deterministic to the byte, which is what lets a test assert
//! "the handshake echo arrived, the response did not" instead of
//! racing a timer.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;

/// How the relay mistreats one proxied connection.
#[derive(Clone, Copy, Debug)]
pub struct RelayPlan {
    /// Bytes forwarded client→server before the connection is cut.
    pub c2s_budget: usize,
    /// Bytes forwarded server→client before the connection is cut.
    pub s2c_budget: usize,
    /// Forwarding granularity: each read is re-written in chunks of at
    /// most this many bytes.
    pub chunk: usize,
    /// Delay between forwarded chunks.
    pub delay: Duration,
}

impl RelayPlan {
    /// Forward everything untouched.
    pub fn clean() -> RelayPlan {
        RelayPlan {
            c2s_budget: usize::MAX,
            s2c_budget: usize::MAX,
            chunk: usize::MAX,
            delay: Duration::ZERO,
        }
    }
}

impl Default for RelayPlan {
    fn default() -> RelayPlan {
        RelayPlan::clean()
    }
}

struct RelayInner {
    /// Where accepted connections are forwarded. Swappable at runtime:
    /// the relay address stays fixed while the server behind it moves.
    upstream: Mutex<SocketAddr>,
    /// The nth accepted connection follows `plans[n]`; beyond the list,
    /// connections are forwarded cleanly.
    plans: Mutex<Vec<RelayPlan>>,
    next_conn: AtomicUsize,
    /// Raw handles of every proxied socket, kept so [`FaultRelay::cut_all`]
    /// can kill live connections mid-frame. Dead entries are pruned
    /// lazily on the next cut.
    live: Mutex<Vec<TcpStream>>,
    /// While set, new connections are accepted and immediately closed —
    /// the "shard is down" face shown to a dialer.
    down: AtomicBool,
    shutdown: AtomicBool,
}

/// A chaos relay fronting one upstream server. See the module docs.
pub struct FaultRelay {
    addr: SocketAddr,
    inner: Arc<RelayInner>,
}

/// One relay direction: read from `from`, forward to `to` in plan-sized
/// chunks until the byte budget runs out, then cut both directions of
/// both sockets.
fn pump(mut from: TcpStream, mut to: TcpStream, mut budget: usize, chunk: usize, delay: Duration) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        for piece in buf[..n].chunks(chunk.max(1)) {
            let take = piece.len().min(budget);
            if to.write_all(&piece[..take]).is_err() {
                budget = 0;
            } else {
                budget -= take;
            }
            if budget == 0 {
                // Budget spent: kill the connection mid-stream.
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            if !delay.is_zero() {
                thread::sleep(delay);
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

impl FaultRelay {
    /// Start a relay in front of `upstream` with the given
    /// per-connection plans. Returns once the listener is bound.
    pub fn start(upstream: SocketAddr, plans: Vec<RelayPlan>) -> std::io::Result<FaultRelay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(RelayInner {
            upstream: Mutex::new(upstream),
            plans: Mutex::new(plans),
            next_conn: AtomicUsize::new(0),
            live: Mutex::new(Vec::new()),
            down: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(client_side) = stream else { continue };
                if accept_inner.down.load(Ordering::Acquire) {
                    let _ = client_side.shutdown(Shutdown::Both);
                    continue;
                }
                let upstream = *accept_inner.upstream.lock();
                let Ok(server_side) = TcpStream::connect(upstream) else {
                    let _ = client_side.shutdown(Shutdown::Both);
                    continue;
                };
                // The relay re-sends a frame in `chunk`-sized writes; with
                // Nagle on, every write after the first waits out the
                // peer's delayed ACK (~40 ms per multi-segment frame).
                client_side.set_nodelay(true).ok();
                server_side.set_nodelay(true).ok();
                let i = accept_inner.next_conn.fetch_add(1, Ordering::Relaxed);
                let plan = {
                    let plans = accept_inner.plans.lock();
                    plans.get(i).copied().unwrap_or_else(RelayPlan::clean)
                };
                let (c2, s2) = match (client_side.try_clone(), server_side.try_clone()) {
                    (Ok(c), Ok(s)) => (c, s),
                    _ => {
                        let _ = client_side.shutdown(Shutdown::Both);
                        let _ = server_side.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                {
                    let mut live = accept_inner.live.lock();
                    if let (Ok(c), Ok(s)) = (client_side.try_clone(), server_side.try_clone()) {
                        live.push(c);
                        live.push(s);
                    }
                }
                thread::spawn(move || {
                    pump(
                        client_side,
                        server_side,
                        plan.c2s_budget,
                        plan.chunk,
                        plan.delay,
                    )
                });
                thread::spawn(move || pump(s2, c2, plan.s2c_budget, plan.chunk, plan.delay));
            }
        });
        Ok(FaultRelay { addr, inner })
    }

    /// The stable address to point a client or router at.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Re-point the relay at a new upstream. Live connections keep
    /// their original upstream; only connections accepted after the
    /// call dial the new one.
    pub fn set_upstream(&self, upstream: SocketAddr) {
        *self.inner.upstream.lock() = upstream;
    }

    /// Replace the mistreatment schedule and restart its numbering:
    /// the next accepted connection follows `plans[0]`. Live
    /// connections keep the plan they were accepted under.
    pub fn set_plans(&self, plans: Vec<RelayPlan>) {
        *self.inner.plans.lock() = plans;
        self.inner.next_conn.store(0, Ordering::Relaxed);
    }

    /// While `down` is set, new connections are accepted and
    /// immediately closed. Live connections are unaffected — combine
    /// with [`FaultRelay::cut_all`] for a full outage.
    pub fn set_down(&self, down: bool) {
        self.inner.down.store(down, Ordering::Release);
    }

    /// Kill every live proxied connection mid-stream, both directions.
    pub fn cut_all(&self) {
        let mut live = self.inner.live.lock();
        for sock in live.drain(..) {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting and kill all live connections. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        self.cut_all();
    }
}

impl Drop for FaultRelay {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut s) = stream else { continue };
                thread::spawn(move || {
                    let mut buf = [0u8; 256];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, stop)
    }

    #[test]
    fn relays_bytes_and_survives_retargeting() {
        let (up1, _stop1) = echo_server();
        let relay = FaultRelay::start(up1, vec![]).expect("start relay");

        let mut c = TcpStream::connect(relay.local_addr()).expect("dial relay");
        c.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).expect("echo back");
        assert_eq!(&buf, b"ping");

        // Swap the upstream; a *new* connection reaches the new server.
        let (up2, _stop2) = echo_server();
        relay.set_upstream(up2);
        let mut c2 = TcpStream::connect(relay.local_addr()).expect("dial relay again");
        c2.write_all(b"pong").expect("write");
        c2.read_exact(&mut buf).expect("echo from new upstream");
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn cut_all_kills_live_connections_and_down_refuses_new_ones() {
        let (up, _stop) = echo_server();
        let relay = FaultRelay::start(up, vec![]).expect("start relay");

        let mut c = TcpStream::connect(relay.local_addr()).expect("dial relay");
        c.write_all(b"x").expect("write");
        let mut buf = [0u8; 1];
        c.read_exact(&mut buf).expect("echo");

        relay.set_down(true);
        relay.cut_all();

        // The live connection is dead: the next read sees EOF or error.
        let mut tail = [0u8; 1];
        c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        match c.read(&mut tail) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("cut connection delivered data"),
        }

        // New connections are swatted away while down; restored after.
        let mut probe = TcpStream::connect(relay.local_addr()).expect("tcp accept still works");
        probe
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match probe.read(&mut tail) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("down relay forwarded data"),
        }

        relay.set_down(false);
        let mut c3 = TcpStream::connect(relay.local_addr()).expect("dial after recovery");
        c3.write_all(b"y").expect("write");
        c3.read_exact(&mut buf).expect("echo after recovery");
        assert_eq!(&buf, b"y");
    }
}
