//! Open-loop load generator over `ServeServer::submit`.
//!
//! One thread sends each request at its due time, whatever the server's
//! state, and stamps responses as they arrive while it waits for the next
//! due time. A single load-generator thread keeps the benchmark's own CPU
//! use small next to the server's workers on a two-vCPU machine. Latency
//! is charged from the due time (see [`crate::stats::due_latencies`]), so
//! generator lateness and server stalls both show.

use polymath::ServeServer;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// The record of one offered request; times are seconds since the phase
/// started.
#[derive(Debug, Clone)]
pub struct Shot {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: Option<f64>,
    /// The wire error kind when admission refused the request.
    pub refused: Option<&'static str>,
    pub response: Option<String>,
    /// `ServeServer::queue_len()` sampled just before the send.
    pub queue_len: usize,
    /// Requests admitted and not yet answered, sampled at the send.
    pub outstanding: usize,
}

/// Offers `lines[i]` at `dues_s[i]` (ascending, seconds from the start)
/// and waits for every admitted request to be answered, or for `drain`
/// past the last due time. `ids[i]` is the request id echoed in the
/// response, used to match responses to requests.
///
/// With `abort_backlog`, offering stops once that many admitted requests
/// are unanswered: the rate is then plainly not sustained, and stopping
/// before the admission queue fills keeps the server from refusing work.
/// Only the requests actually offered get a [`Shot`].
pub fn run_open_loop(
    server: &ServeServer,
    lines: Vec<String>,
    ids: &[String],
    dues_s: &[f64],
    drain: Duration,
    abort_backlog: Option<usize>,
) -> Vec<Shot> {
    let (tx, rx) = mpsc::channel::<String>();
    let start = Instant::now() + Duration::from_millis(2);
    let mut arrivals: Vec<(Instant, String)> = Vec::with_capacity(lines.len());
    let mut shots: Vec<Shot> = Vec::with_capacity(lines.len());
    let mut admitted = 0usize;
    for (line, &due_s) in lines.into_iter().zip(dues_s) {
        let due = start + Duration::from_secs_f64(due_s);
        // Collect responses until the request is due.
        while let Some(left) = due.checked_duration_since(Instant::now()) {
            match rx.recv_timeout(left) {
                Ok(resp) => arrivals.push((Instant::now(), resp)),
                Err(_) => break,
            }
        }
        let outstanding = admitted - arrivals.len();
        if abort_backlog.is_some_and(|limit| outstanding >= limit) {
            break;
        }
        let sent = Instant::now();
        let queue_len = server.queue_len();
        let refused = match server.submit(line, tx.clone()) {
            Ok(()) => {
                admitted += 1;
                None
            }
            Err(e) => Some(e.kind()),
        };
        shots.push(Shot {
            due_s,
            sent_s: (sent - start).as_secs_f64(),
            done_s: None,
            refused,
            response: None,
            queue_len,
            outstanding,
        });
    }
    drop(tx);
    let deadline = start + Duration::from_secs_f64(dues_s.last().copied().unwrap_or(0.0)) + drain;
    while arrivals.len() < admitted {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(resp) => arrivals.push((Instant::now(), resp)),
            // Timed out, or every sender is gone: nothing more can arrive.
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
        }
    }

    let index: std::collections::HashMap<&str, usize> =
        ids.iter().enumerate().map(|(i, id)| (id.as_str(), i)).collect();
    for (at, resp) in arrivals {
        if let Some(&i) = response_id(&resp).and_then(|id| index.get(id)) {
            shots[i].done_s = Some(at.saturating_duration_since(start).as_secs_f64());
            shots[i].response = Some(resp);
        }
    }
    shots
}

/// The request id a response echoes (responses render `id` first).
fn response_id(resp: &str) -> Option<&str> {
    let rest = resp.strip_prefix("{\"id\":\"")?;
    rest.split('"').next()
}

/// Seeded Poisson arrival times: `n` requests at `rate` per second.
pub fn poisson_dues(rng: &mut crate::workloads::Rng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(1.0 / rate);
            t
        })
        .collect()
}
