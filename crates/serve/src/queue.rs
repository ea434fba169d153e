//! Bounded admission with explicit backpressure.
//!
//! The server admits work through one [`Admission`] queue of
//! [`Ticket`]s — the same queue, re-exported from `irlt-driver`, that
//! `run_batch` drains. [`Admission::offer`] answers at once with the
//! depth (for the `accepted` event) or a typed [`Rejection`]
//! (`backpressure` above the high-water mark, `draining` after
//! shutdown), and a kill hands the unstarted tickets back so each is
//! rejected *explicitly*.
//!
//! The accepted → started ordering contract is kept without doing
//! socket I/O under the queue lock: each ticket carries a [`Gate`] the
//! connection thread opens right after writing the `accepted` line;
//! workers wait on the gate before writing `started`.

use crate::server::Sink;
use irlt_driver::Job;
pub use irlt_driver::{Admission, Rejection};
use irlt_opt::CancelToken;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A one-shot open/wait latch (see the module docs for why).
#[derive(Debug, Default)]
pub struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Opens the gate; every current and future [`Gate::wait`] returns.
    pub fn open(&self) {
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        *open = true;
        self.cv.notify_all();
    }

    /// Blocks until the gate opens.
    pub fn wait(&self) {
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// One admitted request, en route to a worker.
#[derive(Debug)]
pub struct Ticket {
    /// Request id (also the job name, so results echo it).
    pub id: String,
    /// The work itself.
    pub job: Job,
    /// Armed at admission: the SLO clock covers queueing, and a client
    /// disconnect or server kill fires it early.
    pub cancel: CancelToken,
    /// Where this request's events go.
    pub sink: Arc<Sink>,
    /// Opened once the `accepted` event is on the wire.
    pub gate: Arc<Gate>,
    /// When the ticket was admitted (for queue-latency telemetry).
    pub admitted: Instant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_orders_accept_before_start() {
        let g = Arc::new(Gate::new());
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                g.wait();
                true
            })
        };
        g.open();
        assert!(waiter.join().unwrap());
        g.wait(); // already open: returns immediately
    }
}
