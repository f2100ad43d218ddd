//! Placement load over keep-alive HTTP/1.1.
//!
//! [`run_closed`] is the closed loop every measured run uses: callers
//! that each wait for their answer before sending the next request.
//! [`run_window`] is one rung of the open-loop ladder: independent
//! submitters, so requests are due on a Poisson schedule whatever the
//! server's progress and a stall delays every later request too. Each
//! open-loop request is timed from its due time, not from when it was
//! written, and requests are pipelined on `conns` connections from a
//! single client thread.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::mix::Rng;
use crate::stats::{percentile, summarize, Summary};

fn p99(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 99.0))
}

/// Latency limit a rung's p99 must meet, µs. Idle wake-ups on a small
/// virtualised host put the p99 of an unloaded daemon at 1–4 ms, so a
/// 1 ms limit would measure the host's scheduler; 10 ms sits above that
/// floor and well below the queueing knee (tens of ms).
pub const P99_LIMIT_US: f64 = 10_000.0;

/// A rung whose generator ran later than this at p99 measured the
/// client, not the server, µs.
pub const GEN_LAG_LIMIT_US: f64 = 1_000.0;

/// Lowest ladder rate, requests/s.
pub const LADDER_BASE: f64 = 500.0;

/// Ratio between neighbouring rungs (under a tenth apart).
pub const LADDER_STEP: f64 = 1.05;

/// Highest ladder rate, requests/s.
pub const LADDER_TOP: f64 = 40_000.0;

/// Length of one ladder rung's window, seconds.
pub const PROBE_SECONDS: f64 = 0.4;

/// Length of the closed-loop warm-up before the measurement, seconds.
pub const WARMUP_SECONDS: f64 = 0.3;

/// Requests one window may send on one connection; the server rotates
/// connections after 10 000, and a window always opens fresh ones.
const PER_CONNECTION_CAP: f64 = 9_000.0;

/// How long answers may trail the last send before they count as
/// timed out.
const DRAIN: Duration = Duration::from_secs(1);

/// The fixed rate ladder, requests/s, lowest first.
pub fn ladder() -> Vec<f64> {
    let mut rungs = Vec::new();
    let mut rate = LADDER_BASE;
    while rate <= LADDER_TOP {
        rungs.push(rate.round());
        rate *= LADDER_STEP;
    }
    rungs
}

/// First answer body seen per mix index, and how many later answers
/// to the same request differed from it.
#[derive(Debug)]
pub struct AnswerBook {
    first: Vec<Option<Vec<u8>>>,
    /// Answers that differed from an earlier answer to the same request.
    pub inconsistent: u64,
}

impl AnswerBook {
    /// An empty book for a mix of `size` requests.
    pub fn new(size: usize) -> Self {
        Self {
            first: vec![None; size],
            inconsistent: 0,
        }
    }

    fn note(&mut self, index: usize, body: &[u8]) {
        match &self.first[index] {
            None => self.first[index] = Some(body.to_vec()),
            Some(seen) if seen.as_slice() != body => self.inconsistent += 1,
            Some(_) => {}
        }
    }

    /// `(mix index, body)` for every request answered at least once.
    pub fn answered(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.first
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_deref().map(|b| (i, b)))
    }
}

/// Accounting for one window at one offered rate.
#[derive(Debug, Clone)]
pub struct Window {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Requests due inside the window.
    pub due: u64,
    /// Requests written.
    pub sent: u64,
    /// Requests answered 200.
    pub answered: u64,
    /// Refused, timed-out, or non-200 requests.
    pub failed: u64,
    /// Requests sent but unanswered when the last one was sent.
    pub backlog_end: u64,
    /// Latency from due time to full answer, µs.
    pub latency_us: Vec<f64>,
    /// How late each request was written, µs.
    pub lag_us: Vec<f64>,
}

impl Window {
    /// Latency summary.
    pub fn latency(&self) -> Option<Summary> {
        summarize(&self.latency_us)
    }

    /// Nearest-rank p99 of the latencies (infinite with none), the
    /// figure the limit applies to whatever the sample count.
    pub fn latency_p99(&self) -> f64 {
        p99(&self.latency_us).unwrap_or(f64::INFINITY)
    }

    /// Nearest-rank p99 of the generator's lateness (0 with no sends).
    pub fn gen_lag_p99_us(&self) -> f64 {
        p99(&self.lag_us).unwrap_or(0.0)
    }

    /// Whether the backlog grew: more requests outstanding at the last
    /// send than arrive within the latency limit, plus two per
    /// connection.
    pub fn backlog_grew(&self, conns: usize) -> bool {
        self.backlog_end as f64 > self.rate * P99_LIMIT_US / 1e6 + 2.0 * conns as f64
    }

    /// Whether the rung holds: no failures, every due request answered,
    /// p99 within the limit, the backlog steady, and the generator on
    /// time.
    pub fn holds(&self, conns: usize) -> bool {
        self.failed == 0
            && self.answered == self.due
            && self.latency_p99() <= P99_LIMIT_US
            && !self.backlog_grew(conns)
            && self.gen_lag_p99_us() <= GEN_LAG_LIMIT_US
    }

    /// Merges `other` (another window at the same rate) into `self`.
    pub fn absorb(&mut self, other: Window) {
        self.due += other.due;
        self.sent += other.sent;
        self.answered += other.answered;
        self.failed += other.failed;
        self.backlog_end = self.backlog_end.max(other.backlog_end);
        self.latency_us.extend(other.latency_us);
        self.lag_us.extend(other.lag_us);
    }
}

/// Length of one window at `rate`: `wanted`, capped so that no
/// connection reaches the server's per-connection request limit.
pub fn window_seconds(rate: f64, wanted: f64, conns: usize) -> f64 {
    wanted.min(PER_CONNECTION_CAP * conns as f64 / rate)
}

/// One parsed answer: status, and the body's byte range in the buffer.
fn parse_answer(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.get(9..12)?.parse().ok()?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + length).then_some((status, head_end..head_end + length))
}

/// Per-connection state: bytes not yet written, bytes not yet parsed,
/// and the requests in flight in send order.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    buf: Vec<u8>,
    queue: VecDeque<(Instant, usize)>,
    open: bool,
}

/// Offers `rate` requests/s for `seconds`, drawing requests from `mix`
/// (full HTTP requests) with `rng`, pipelined round-robin over `conns`
/// fresh connections.
///
/// One thread sends and reads on non-blocking sockets and never sleeps:
/// an idle wake-up on a virtualised host can run a millisecond late,
/// which would charge the generator's lateness to the server. The
/// client therefore keeps exactly one core busy.
pub fn run_window(
    addr: SocketAddr,
    mix: &[Vec<u8>],
    rate: f64,
    seconds: f64,
    conns: usize,
    rng: &mut Rng,
    book: &mut AnswerBook,
) -> io::Result<Window> {
    // The schedule is fixed before the window starts: due offsets and
    // mix entries for every request.
    let mut schedule: Vec<(Duration, usize)> = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            break;
        }
        schedule.push((
            Duration::from_secs_f64(t),
            rng.below(mix.len() as u64) as usize,
        ));
    }
    let mut conns: Vec<Conn> = (0..conns.max(1))
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                out: Vec::with_capacity(1 << 16),
                written: 0,
                buf: Vec::with_capacity(1 << 16),
                queue: VecDeque::new(),
                open: true,
            })
        })
        .collect::<io::Result<_>>()?;
    let mut window = Window {
        rate,
        due: schedule.len() as u64,
        sent: 0,
        answered: 0,
        failed: 0,
        backlog_end: 0,
        latency_us: Vec::with_capacity(schedule.len()),
        lag_us: Vec::with_capacity(schedule.len()),
    };
    let mut chunk = vec![0u8; 1 << 16];
    let start = Instant::now();
    let mut next = 0usize;
    let mut deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        while next < schedule.len() && start + schedule[next].0 <= now {
            let (offset, entry) = schedule[next];
            let n = conns.len();
            let c = &mut conns[next % n];
            next += 1;
            if !c.open {
                window.failed += 1;
                continue;
            }
            c.out.extend_from_slice(&mix[entry]);
            c.queue.push_back((start + offset, entry));
            window.sent += 1;
            window
                .lag_us
                .push(now.saturating_duration_since(start + offset).as_secs_f64() * 1e6);
            if next == schedule.len() {
                window.backlog_end = window.sent - window.answered;
            }
        }
        if next == schedule.len() {
            let end = *deadline.get_or_insert(now + DRAIN);
            if conns.iter().all(|c| c.queue.is_empty()) || now >= end {
                break;
            }
        }
        for c in conns.iter_mut().filter(|c| c.open) {
            if c.written < c.out.len() {
                match c.stream.write(&c.out[c.written..]) {
                    Ok(n) => c.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => c.open = false,
                }
                if c.written == c.out.len() {
                    c.out.clear();
                    c.written = 0;
                }
            }
            match c.stream.read(&mut chunk) {
                Ok(0) => c.open = false,
                Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => c.open = false,
            }
            let mut consumed = 0;
            while let Some((status, body)) = parse_answer(&c.buf[consumed..]) {
                let Some((due_at, entry)) = c.queue.pop_front() else {
                    return Err(io::Error::other("answer without a request"));
                };
                if status == 200 {
                    window.answered += 1;
                    window
                        .latency_us
                        .push(now.saturating_duration_since(due_at).as_secs_f64() * 1e6);
                    book.note(entry, &c.buf[consumed + body.start..consumed + body.end]);
                } else {
                    window.failed += 1;
                }
                consumed += body.end;
            }
            c.buf.drain(..consumed);
            if !c.open {
                // Whatever was in flight on a closed connection will
                // never be answered.
                window.failed += c.queue.len() as u64;
                c.queue.clear();
            }
        }
        std::hint::spin_loop();
    }
    // Still unanswered at the drain deadline: timed out.
    window.failed += conns.iter().map(|c| c.queue.len() as u64).sum::<u64>();
    Ok(window)
}

/// Closed loop: `conns` threads, each with one keep-alive connection
/// and one request in flight, cycling through `mix` from a seeded
/// offset for `seconds`. Returns the pooled accounting (its `rate` is
/// the achieved throughput) and every thread's answers.
pub fn run_closed(
    addr: SocketAddr,
    mix: &[Vec<u8>],
    seconds: f64,
    conns: usize,
    rng: &mut Rng,
    book: &mut AnswerBook,
) -> io::Result<Window> {
    let offsets: Vec<usize> = (0..conns.max(1))
        .map(|_| rng.below(mix.len() as u64) as usize)
        .collect();
    let started = Instant::now();
    let stop = started + Duration::from_secs_f64(seconds);
    let results: Vec<io::Result<(Window, AnswerBook)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = offsets
            .iter()
            .map(|&offset| scope.spawn(move || closed_connection(addr, mix, offset, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut pooled: Option<Window> = None;
    for result in results {
        let (window, answers) = result?;
        for (index, body) in answers.answered() {
            book.note(index, body);
        }
        book.inconsistent += answers.inconsistent;
        match &mut pooled {
            None => pooled = Some(window),
            Some(p) => p.absorb(window),
        }
    }
    let mut pooled = pooled.ok_or_else(|| io::Error::other("no connections"))?;
    pooled.rate = pooled.answered as f64 / elapsed;
    Ok(pooled)
}

/// One closed-loop connection until `stop`; requests
/// `mix[offset..]` cyclically, reconnecting when the server rotates
/// the connection.
fn closed_connection(
    addr: SocketAddr,
    mix: &[Vec<u8>],
    offset: usize,
    stop: Instant,
) -> io::Result<(Window, AnswerBook)> {
    let mut book = AnswerBook::new(mix.len());
    let mut window = Window {
        rate: 0.0,
        due: 0,
        sent: 0,
        answered: 0,
        failed: 0,
        backlog_end: 0,
        latency_us: Vec::new(),
        lag_us: Vec::new(),
    };
    let mut stream: Option<TcpStream> = None;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 12);
    let mut chunk = vec![0u8; 1 << 12];
    let mut k = offset;
    while Instant::now() < stop {
        let entry = k % mix.len();
        k += 1;
        window.due += 1;
        let conn = match &mut stream {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                stream.insert(s)
            }
        };
        let sent_at = Instant::now();
        if conn.write_all(&mix[entry]).is_err() {
            window.failed += 1;
            stream = None;
            continue;
        }
        window.sent += 1;
        buf.clear();
        let answer = loop {
            if let Some(parsed) = parse_answer(&buf) {
                break Some(parsed);
            }
            match conn.read(&mut chunk) {
                Ok(0) | Err(_) => break None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        };
        match answer.clone() {
            Some((200, body)) => {
                window.answered += 1;
                window
                    .latency_us
                    .push(sent_at.elapsed().as_secs_f64() * 1e6);
                book.note(entry, &buf[body]);
            }
            _ => window.failed += 1,
        }
        // The server closes after its per-connection request limit.
        if answer.is_none()
            || buf
                .windows(17)
                .any(|w| w.eq_ignore_ascii_case(b"connection: close"))
        {
            stream = None;
        }
    }
    Ok((window, book))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_are_under_a_tenth_apart() {
        let rungs = ladder();
        assert_eq!(rungs[0], LADDER_BASE);
        assert!(*rungs.last().unwrap() <= LADDER_TOP);
        for pair in rungs.windows(2) {
            assert!(pair[1] > pair[0] && pair[1] / pair[0] < 1.1);
        }
    }

    #[test]
    fn answers_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}HTTP/1.1";
        assert_eq!(parse_answer(full), Some((200, 38..40)));
        assert_eq!(parse_answer(&full[..39]), None);
        let err = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_answer(err), Some((400, 47..47)));
    }

    #[test]
    fn rung_fails_on_growing_backlog_or_slow_tail() {
        let mut w = Window {
            rate: 10_000.0,
            due: 2_000,
            sent: 2_000,
            answered: 2_000,
            failed: 0,
            backlog_end: 3,
            latency_us: vec![100.0; 2_000],
            lag_us: vec![10.0; 2_000],
        };
        assert!(w.holds(2));
        w.backlog_end = 200;
        assert!(!w.holds(2));
        w.backlog_end = 3;
        w.latency_us[..30].fill(2.0 * P99_LIMIT_US);
        assert!(!w.holds(2));
    }
}
