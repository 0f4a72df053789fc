//! The event loop the server and the router share: threads that wait
//! on one [`Poller`] over a nonblocking listener and every socket they
//! own, each registered **oneshot**, so an event goes to exactly one
//! thread and its socket stays disarmed until a turn re-arms it. A
//! thread claims one event at a time: the listener's is an accept
//! ([`Service::accept`]), a [`Pool::notify`] a [`Service::wake`], any
//! other a turn of the [`Session`] its key names ([`Service::claim`]).
//!
//! A session is one or more sockets whose events all run turns of one
//! state: a server connection is a one-socket session, a router session
//! a client and the backend connections it dials. The pool keeps a
//! registry from each socket's key to its session. A thread that claims
//! an event of a session another thread holds in a turn does not wait:
//! it leaves a note, which the holder drains before it unlocks and looks
//! for again after, so one turn at a time per session is the whole
//! concurrency story and no event is lost to a turn in progress. Every
//! socket is re-armed by one rule ([`Wire::arm`]): when its event was
//! claimed or its interest changed. A connection's byte streams are a
//! [`Wire`].

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use parking_lot::Mutex;
use polling::{Event, PollMode, Poller};

use crate::protocol::{write_frame, write_frame_seq, FrameBuffer, MAGIC};

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

/// What a pool's threads serve: sessions whose state is `State`.
pub(crate) trait Service: Send + Sync + Sized + 'static {
    /// Everything a turn of one session touches: its sockets and what
    /// they carry.
    type State: Send + 'static;
    /// The poller, listener and session registry this service's
    /// threads wait on.
    fn pool(&self) -> &Pool<Self::State>;
    /// Take a connection just accepted off the listener (already
    /// nonblocking, `TCP_NODELAY` set).
    fn accept(&self, stream: TcpStream);
    /// Run one turn of `session` (under which a turn registers the
    /// sockets it opens), whose state is `state`. Each key in `fired`
    /// names one of its sockets whose event was claimed (or a wake that
    /// visited it as one), which stays disarmed until this turn re-arms
    /// it. `false` ends the session.
    fn turn(
        &self,
        state: &mut Self::State,
        session: &Arc<Session<Self::State>>,
        fired: &[usize],
        scratch: &mut [u8],
    ) -> bool;
    /// Close every socket of a session that is over: its turn said so,
    /// or the pool stopped while it was open.
    fn end(&self, state: &mut Self::State);
    /// Run what a [`Pool::notify`] asked for. A wake may reach more
    /// than one thread, so this must tolerate running concurrently.
    fn wake(&self, _scratch: &mut [u8]) {}

    /// Give the session behind `key` a turn, or leave it a note when
    /// another thread holds it in one. A key no open socket has is
    /// dropped.
    fn claim(&self, key: usize, scratch: &mut [u8]) {
        let session = self.pool().sessions.lock().get(&key).cloned();
        if let Some(session) = session {
            session.visit(key, |state, fired| {
                let open = self.turn(state, &session, fired, scratch);
                if !open {
                    self.end(state);
                }
                open
            });
        }
    }

    /// Tell the threads to stop and join them, each finishing the turn
    /// it is in, then end every session still open. `false` when the
    /// pool was already stopped.
    fn stop(&self, threads: &mut Vec<JoinHandle<()>>) -> bool {
        let pool = self.pool();
        if pool.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        // One wake; each thread passes it on as it leaves.
        let _ = pool.poller.notify();
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
        let open: Vec<_> = pool.sessions.lock().drain().map(|(_, s)| s).collect();
        for session in open {
            let mut held = session.held.lock();
            if std::mem::replace(&mut held.open, false) {
                self.end(&mut held.state);
            }
        }
        true
    }
}

/// One session: its state behind one mutex, and the keys whose events
/// were claimed while another thread held it.
pub(crate) struct Session<T> {
    held: Mutex<Held<T>>,
    /// Keys claimed and not yet handled by a turn.
    notes: Mutex<Vec<usize>>,
}

/// What the thread in a session's turn holds.
struct Held<T> {
    state: T,
    /// The notes a turn handles, swapped with [`Session::notes`] so
    /// that neither buffer is allocated again.
    fired: Vec<usize>,
    /// Cleared when the session ends: later notes are dropped.
    open: bool,
}

impl<T> Session<T> {
    pub(crate) fn new(state: T) -> Arc<Session<T>> {
        Arc::new(Session {
            held: Mutex::new(Held {
                state,
                fired: Vec::new(),
                open: true,
            }),
            notes: Mutex::new(Vec::new()),
        })
    }

    /// Handle an event claimed for `key`: note it, then run `turn`s
    /// until no note is left, while the session stays open — unless
    /// another thread is in a turn, which then drains the note before it
    /// lets go. The holder looks again after unlocking, so a note left
    /// in between is never stranded.
    fn visit(&self, key: usize, mut turn: impl FnMut(&mut T, &[usize]) -> bool) {
        self.notes.lock().push(key);
        while let Some(mut guard) = self.held.try_lock() {
            let held = &mut *guard;
            loop {
                std::mem::swap(&mut *self.notes.lock(), &mut held.fired);
                if held.fired.is_empty() {
                    break;
                }
                if held.open {
                    held.open = turn(&mut held.state, &held.fired);
                }
                held.fired.clear();
            }
            // Unlock, then look: a note left before the unlock is seen
            // here, and one left after it finds the lock free.
            drop(guard);
            if self.notes.lock().is_empty() {
                return;
            }
        }
    }
}

/// A poller with a listener registered on it, the session behind every
/// other socket registered on it, and the shutdown flag its threads
/// watch.
pub(crate) struct Pool<T> {
    poller: Poller,
    listener: TcpListener,
    next_key: AtomicUsize,
    shutdown: AtomicBool,
    /// The session behind every open socket, by poller key. A socket
    /// gets a fresh key each time it is registered and loses it when it
    /// closes, so a stale event finds no entry.
    sessions: Mutex<HashMap<usize, Arc<Session<T>>>>,
}

impl<T> Pool<T> {
    /// Bind a nonblocking listener on `addr` and register it.
    pub(crate) fn bind(addr: impl ToSocketAddrs) -> io::Result<Pool<T>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add_with_mode(&listener, Event::readable(LISTENER_KEY), PollMode::Oneshot)?;
        Ok(Pool {
            poller,
            listener,
            next_key: AtomicUsize::new(LISTENER_KEY + 1),
            shutdown: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
        })
    }

    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A key no source of this pool has had before.
    pub(crate) fn next_key(&self) -> usize {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }

    /// Make `source` findable under `key` as a socket of `session`,
    /// then register it oneshot for reading — in that order, so whoever
    /// claims its first event finds it.
    pub(crate) fn register(
        &self,
        key: usize,
        session: &Arc<Session<T>>,
        source: &impl AsRawFd,
    ) -> io::Result<()> {
        self.sessions.lock().insert(key, Arc::clone(session));
        let added = self
            .poller
            .add_with_mode(source, Event::readable(key), PollMode::Oneshot);
        if added.is_err() {
            self.sessions.lock().remove(&key);
        }
        added
    }

    /// Wake a waiting thread for a [`Service::wake`].
    pub(crate) fn notify(&self) {
        let _ = self.poller.notify();
    }

    /// Whether [`Service::stop`] has been called.
    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Start `threads` threads named `{name}-{i}` serving `service`.
    pub(crate) fn spawn<S: Service<State = T>>(
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
    let listening = Event::readable(LISTENER_KEY);
    let _ = pool
        .poller
        .modify_with_mode(&pool.listener, listening, PollMode::Oneshot);
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

    /// Queue one frame whose payload is `seq` followed by `body`, built
    /// in place; returns the bytes it takes on the wire (0 when the
    /// write side is dead).
    pub(crate) fn queue_seq(&mut self, seq: u64, body: &[u8]) -> u64 {
        self.buf().map_or(0, |buf| {
            write_frame_seq(buf, seq, body).expect("Vec write is infallible")
        })
    }
}

/// One connection's byte streams over a nonblocking socket, and how
/// the socket is armed.
pub(crate) struct Wire {
    pub(crate) stream: TcpStream,
    /// The socket's poller key.
    pub(crate) key: usize,
    /// The interest the socket is armed with; `None` from a claim of its
    /// event until it is re-armed.
    armed: Option<Event>,
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
    /// A connection over `stream`, registered under `key` for reading:
    /// one this side accepted expects the client's magic first; one it
    /// dialed has `handshaken` already.
    pub(crate) fn new(stream: TcpStream, key: usize, handshaken: bool) -> Wire {
        Wire {
            stream,
            key,
            armed: Some(Event::readable(key)),
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
    pub(crate) fn interest(&self, blocked: bool) -> Event {
        let left_over = self.rbuf.has_frame();
        Event {
            key: self.key,
            readable: !self.peer_closed && !left_over && !blocked,
            writable: self.out.backlog() > 0 || (left_over && !blocked),
        }
    }

    /// Whether `fired` names this socket; if so, its event was claimed
    /// and it is disarmed until re-armed.
    pub(crate) fn claimed(&mut self, fired: &[usize]) -> bool {
        let claimed = fired.contains(&self.key);
        if claimed {
            self.armed = None;
        }
        claimed
    }

    /// Arm the socket oneshot with `want` (under its own key) when its
    /// event was claimed or its interest changed; a disarmed socket that
    /// wants nothing stays disarmed.
    pub(crate) fn arm<T>(&mut self, pool: &Pool<T>, want: Event) -> io::Result<()> {
        let idle = !want.readable && !want.writable;
        if self.armed == Some(want) || (self.armed.is_none() && idle) {
            return Ok(());
        }
        self.armed = Some(want);
        pool.poller
            .modify_with_mode(&self.stream, want, PollMode::Oneshot)
    }

    /// Drop the socket's key, deregister it and shut it, after one last
    /// nonblocking try at what is queued.
    pub(crate) fn close<T>(&mut self, pool: &Pool<T>) {
        pool.sessions.lock().remove(&self.key);
        if !self.out.dead && self.out.backlog() > 0 {
            let _ = self.stream.write_all(&self.out.buf[self.out.pos..]);
        }
        let _ = pool.poller.delete(&self.stream);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};

    use super::*;

    /// A visit to a session another thread holds in a turn returns at
    /// once, and its key reaches the holder's next turn.
    #[test]
    fn a_visit_to_a_busy_session_leaves_a_note_for_the_holder() {
        let session = Session::new(Vec::new());
        let (entered, in_turn) = mpsc::channel();
        let (noted, note_left) = mpsc::channel::<()>();
        thread::scope(|s| {
            let holder = &session;
            s.spawn(move || {
                holder.visit(1, |handled: &mut Vec<usize>, fired| {
                    if handled.is_empty() {
                        entered.send(()).expect("send");
                        note_left.recv().expect("recv");
                    }
                    handled.extend_from_slice(fired);
                    true
                });
            });
            in_turn.recv().expect("recv");
            session.visit(2, |_, _| panic!("the holder runs the turn"));
            noted.send(()).expect("send");
        });
        assert_eq!(session.held.lock().state, [1, 2]);
    }

    /// Threads released together visit one session with interleaved
    /// keys, round after round: never two turns at once, and once every
    /// visit of a round has returned, every key of the round has reached
    /// a turn — a visit that found the session busy left a note, and the
    /// holder did not unlock past it.
    #[test]
    fn concurrent_visits_take_one_turn_at_a_time_and_strand_no_note() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 40_000;
        let session = Session::new(Vec::new());
        let (in_turn, most, short_rounds) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let (start, done) = (Barrier::new(THREADS), Barrier::new(THREADS));
        thread::scope(|s| {
            for t in 0..THREADS {
                let (session, in_turn, most, short_rounds) =
                    (&session, &in_turn, &most, &short_rounds);
                let (start, done) = (&start, &done);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        start.wait();
                        session.visit(round * THREADS + t, |handled: &mut Vec<usize>, fired| {
                            let now = in_turn.fetch_add(1, Ordering::SeqCst) + 1;
                            most.fetch_max(now, Ordering::SeqCst);
                            handled.extend_from_slice(fired);
                            in_turn.fetch_sub(1, Ordering::SeqCst);
                            true
                        });
                        // No thread is in a turn once every visit returned.
                        if done.wait().is_leader() {
                            let mut held = session.held.lock();
                            held.state.sort_unstable();
                            let want: Vec<usize> =
                                (round * THREADS..(round + 1) * THREADS).collect();
                            if held.state != want {
                                short_rounds.fetch_add(1, Ordering::SeqCst);
                            }
                            held.state.clear();
                        }
                    }
                });
            }
        });
        assert_eq!(most.load(Ordering::SeqCst), 1, "two turns at once");
        assert_eq!(
            short_rounds.load(Ordering::SeqCst),
            0,
            "rounds with a note left unhandled"
        );
        assert!(session.notes.lock().is_empty());
    }
}
