//! The event loop the server and the router share: threads that wait
//! on one [`Poller`] over a nonblocking listener and every socket they
//! own, each registered **oneshot**, so an event goes to exactly one
//! thread and its socket stays disarmed until that thread re-arms it.
//! A thread claims one event at a time: the listener's is an accept
//! ([`Service::accept`]), a [`Pool::notify`] a [`Service::wake`], any
//! other a turn of whatever its key names ([`Service::claim`]). A
//! connection's byte streams are a [`Wire`].

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use polling::{Event, PollMode, Poller};

use crate::protocol::{write_frame, FrameBuffer, MAGIC};

/// Frames one turn takes from a connection before it is re-armed (the
/// per-connection backpressure unit).
pub(crate) const PIPELINE_DEPTH: usize = 64;

/// The listener's poller key; every other key is handed out above it.
const LISTENER_KEY: usize = 0;

/// Threads a server or a router runs unless told otherwise: one per
/// core, at least 4, at most 16.
pub(crate) fn default_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 16)
}

/// What a pool's threads serve.
pub(crate) trait Service: Send + Sync + 'static {
    /// The poller and listener this service's threads wait on.
    fn pool(&self) -> &Pool;
    /// Take a connection just accepted off the listener (already
    /// nonblocking, `TCP_NODELAY` set).
    fn accept(&self, stream: TcpStream);
    /// Give the source behind `key` its turn: an event for it was
    /// claimed, and the source stays disarmed until re-armed.
    fn claim(&self, key: usize, scratch: &mut [u8]);
    /// Run what a [`Pool::notify`] asked for. A wake may reach more
    /// than one thread, so this must tolerate running concurrently.
    fn wake(&self, _scratch: &mut [u8]) {}
}

/// A poller with a listener registered on it, the keys handed out for
/// other sources, and the shutdown flag its threads watch.
pub(crate) struct Pool {
    poller: Poller,
    listener: TcpListener,
    next_key: AtomicUsize,
    shutdown: AtomicBool,
}

impl Pool {
    /// Bind a nonblocking listener on `addr` and register it.
    pub(crate) fn bind(addr: impl ToSocketAddrs) -> io::Result<Pool> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add_with_mode(&listener, Event::readable(LISTENER_KEY), PollMode::Oneshot)?;
        Ok(Pool {
            poller,
            listener,
            next_key: AtomicUsize::new(LISTENER_KEY + 1),
            shutdown: AtomicBool::new(false),
        })
    }

    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A key no source of this pool has had before.
    pub(crate) fn next_key(&self) -> usize {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }

    /// Register `source` oneshot with `interest`.
    pub(crate) fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        self.poller
            .add_with_mode(source, interest, PollMode::Oneshot)
    }

    /// Re-arm (or re-aim) a registered source, oneshot.
    pub(crate) fn arm(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        self.poller
            .modify_with_mode(source, interest, PollMode::Oneshot)
    }

    /// Wake a waiting thread for a [`Service::wake`].
    pub(crate) fn notify(&self) {
        let _ = self.poller.notify();
    }

    /// Whether [`Pool::stop`] has been called.
    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Start `threads` threads named `{name}-{i}` serving `service`.
    pub(crate) fn spawn<S: Service>(
        service: &Arc<S>,
        threads: usize,
        name: &str,
    ) -> Vec<JoinHandle<()>> {
        (0..threads.max(1))
            .map(|i| {
                let service = Arc::clone(service);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || serve(&*service))
                    .expect("spawn event-loop thread")
            })
            .collect()
    }

    /// Tell the threads to stop and join them; each finishes the turn
    /// it is in. `false` when the pool was already stopped.
    pub(crate) fn stop(&self, threads: &mut Vec<JoinHandle<()>>) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        // One wake; each thread passes it on as it leaves.
        let _ = self.poller.notify();
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
        true
    }
}

/// One thread of a pool: claim one event at a time and hand it on.
fn serve<S: Service>(service: &S) {
    let pool = service.pool();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    loop {
        if pool.poller.wait_max(&mut events, 1, None).is_err() {
            break;
        }
        if pool.shutdown.load(Ordering::SeqCst) {
            // Pass the wake on to the next thread still waiting.
            let _ = pool.poller.notify();
            break;
        }
        match events.first() {
            Some(ev) if ev.key == LISTENER_KEY => accept_ready(service),
            Some(ev) => service.claim(ev.key, &mut scratch),
            None => service.wake(&mut scratch),
        }
    }
}

/// Accept every connection the listener has, then re-arm it.
fn accept_ready<S: Service>(service: &S) {
    let pool = service.pool();
    loop {
        let stream = match pool.listener.accept() {
            Ok((stream, _)) => stream,
            // Dry (WouldBlock), or a transient failure (ECONNABORTED,
            // EMFILE): leave the rest for the next readiness report.
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        service.accept(stream);
    }
    let _ = pool.arm(&pool.listener, Event::readable(LISTENER_KEY));
}

/// A connection's partial-write buffer: frames queued for the socket,
/// `pos` of them already on it.
#[derive(Default)]
pub(crate) struct Outbox {
    buf: Vec<u8>,
    pos: usize,
    /// The socket's write side failed: whatever is queued is discarded.
    pub(crate) dead: bool,
}

impl Outbox {
    /// Bytes queued and not yet on the wire.
    pub(crate) fn backlog(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The buffer to append to, or `None` once the write side is dead.
    pub(crate) fn buf(&mut self) -> Option<&mut Vec<u8>> {
        if self.dead {
            return None;
        }
        // Compact lazily once the sent prefix dominates.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Some(&mut self.buf)
    }

    /// Queue one frame; returns the bytes it takes on the wire (0 when
    /// the write side is dead).
    pub(crate) fn queue(&mut self, payload: &[u8]) -> u64 {
        self.buf().map_or(0, |buf| {
            write_frame(buf, payload).expect("Vec write is infallible")
        })
    }
}

/// One connection's byte streams over a nonblocking socket.
pub(crate) struct Wire {
    pub(crate) stream: TcpStream,
    /// Handshake progress: how many magic bytes have been read (an
    /// accepted connection starts at 0 and echoes them at 4).
    magic_got: usize,
    /// Partial-read buffer: accumulates socket bytes, yields frames.
    pub(crate) rbuf: FrameBuffer,
    pub(crate) out: Outbox,
    /// The peer sent EOF (or reset): nothing more arrives.
    pub(crate) peer_closed: bool,
}

impl Wire {
    /// A connection over `stream`: one this side accepted expects the
    /// client's magic first; one it dialed has `handshaken` already.
    pub(crate) fn new(stream: TcpStream, handshaken: bool) -> Wire {
        Wire {
            stream,
            magic_got: if handshaken { MAGIC.len() } else { 0 },
            rbuf: FrameBuffer::new(),
            out: Outbox::default(),
            peer_closed: false,
        }
    }

    /// Pull what the kernel has into the read buffer, until it holds a
    /// complete frame or the socket runs dry. A handshake that is not
    /// the magic counts in `protocol_errors` and ends the connection.
    pub(crate) fn read_ready(&mut self, scratch: &mut [u8], protocol_errors: &AtomicU64) {
        while !self.peer_closed && !self.rbuf.has_frame() {
            let n = match self.stream.read(scratch) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Reset mid-stream: what was read still counts,
                    // nothing more arrives and nothing can be delivered.
                    self.peer_closed = true;
                    self.out.dead = true;
                    break;
                }
            };
            let mut bytes = &scratch[..n];
            // Handshake state: expect the client's 4 magic bytes, echo
            // them back.
            if self.magic_got < MAGIC.len() {
                let take = bytes.len().min(MAGIC.len() - self.magic_got);
                let (magic, rest) = bytes.split_at(take);
                if magic != &MAGIC[self.magic_got..self.magic_got + take] {
                    protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.peer_closed = true;
                    self.out.dead = true;
                    return;
                }
                self.magic_got += take;
                bytes = rest;
                if self.magic_got == MAGIC.len() {
                    // The echo is raw bytes, not a frame.
                    if let Some(buf) = self.out.buf() {
                        buf.extend_from_slice(&MAGIC);
                    }
                }
            }
            self.rbuf.extend(bytes);
        }
    }

    /// Write what is queued as far as the socket takes it; a dead write
    /// side drops the backlog.
    pub(crate) fn flush(&mut self) {
        let out = &mut self.out;
        while out.pos < out.buf.len() && !out.dead {
            match self.stream.write(&out.buf[out.pos..]) {
                Ok(0) => out.dead = true,
                Ok(n) => out.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => out.dead = true,
            }
        }
        if out.dead {
            out.buf.clear();
            out.pos = 0;
        }
    }

    /// The interest to re-arm with: read while no complete frame is left
    /// over, write while responses are backlogged or frames are left
    /// over (a writable socket reports at once, so they get the next
    /// turn). While `blocked`, left-over frames wait and nothing is read.
    pub(crate) fn interest(&self, key: usize, blocked: bool) -> Event {
        let left_over = self.rbuf.has_frame();
        Event {
            key,
            readable: !self.peer_closed && !left_over && !blocked,
            writable: self.out.backlog() > 0 || (left_over && !blocked),
        }
    }

    /// Deregister and shut the socket, after one last nonblocking try
    /// at what is queued.
    pub(crate) fn close(&mut self, pool: &Pool) {
        if !self.out.dead && self.out.backlog() > 0 {
            let _ = self.stream.write_all(&self.out.buf[self.out.pos..]);
        }
        let _ = pool.poller.delete(&self.stream);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}
