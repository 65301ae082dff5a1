//! The single-threaded client: an open loop that sends on a schedule
//! with `try_submit`, and a closed loop that keeps a fixed window of
//! requests outstanding. Every answer is checked against its
//! template's reference.

use std::time::{Duration, Instant};

use tempus_serve::{
    CacheOutcome, Request, Response, ResponseOutcome, SloPolicy, StreamingService, SubmitError,
};

use crate::workload::{Arrival, Reference};

/// Longest the client waits for any one answer before calling the
/// service stuck.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// What one phase saw.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: usize,
    /// Refused at the ingestion queue (`try_submit` backpressure).
    pub refused: usize,
    pub rejected: usize,
    pub failed: usize,
    /// Answers whose digest (or cycles) differ from the reference.
    pub mismatches: usize,
    pub slo_met: usize,
    /// Latency of each answered request, ns: from its due time in the
    /// open loop, from its submission in the closed loop.
    pub latency_ns: Vec<u64>,
    pub queue_ns: Vec<u64>,
    /// Service-side latency of cache hits, ns.
    pub hit_ns: Vec<u64>,
    /// How late the client sent each request, ns.
    pub lag_ns: Vec<u64>,
    /// Completion instant and modelled cycles of each answer.
    pub completions: Vec<(Instant, u64)>,
    /// Modelled energy per request id (0 when not answered), pJ.
    pub energy_pj: Vec<f64>,
}

impl Tally {
    pub fn answered(&self) -> usize {
        self.latency_ns.len()
    }

    pub fn unanswered(&self) -> usize {
        self.refused + self.rejected + self.failed
    }
}

pub struct Client<'a> {
    service: &'a StreamingService,
    templates: &'a [Request],
    refs: &'a [Reference],
    check_cycles: bool,
    slo: SloPolicy,
    template_of: Vec<usize>,
    offset_ns: Vec<u64>,
    outstanding: usize,
    pub tally: Tally,
}

impl<'a> Client<'a> {
    pub fn new(
        service: &'a StreamingService,
        templates: &'a [Request],
        refs: &'a [Reference],
        check_cycles: bool,
    ) -> Self {
        Client {
            service,
            templates,
            refs,
            check_cycles,
            slo: SloPolicy::edge_defaults(),
            template_of: Vec::new(),
            offset_ns: Vec::new(),
            outstanding: 0,
            tally: Tally::default(),
        }
    }

    /// A copy of template `template` under the next request id.
    fn next_request(&mut self, template: usize) -> Request {
        let mut request = self.templates[template].clone();
        request.job.id = self.template_of.len() as u64;
        self.template_of.push(template);
        self.offset_ns.push(0);
        self.tally.energy_pj.push(0.0);
        request
    }

    pub fn handle(&mut self, response: Response) {
        self.outstanding -= 1;
        let id = response.job_id as usize;
        match response.outcome {
            ResponseOutcome::Done(result) => {
                let reference = self.refs[self.template_of[id]];
                if result.output.digest() != reference.digest
                    || (self.check_cycles && result.sim_cycles != reference.sim_cycles)
                {
                    self.tally.mismatches += 1;
                }
                let latency = self.offset_ns[id] + response.total_ns;
                if latency <= self.slo.target_ns(response.class) {
                    self.tally.slo_met += 1;
                }
                self.tally.latency_ns.push(latency);
                self.tally.queue_ns.push(response.queue_ns);
                if result.cache == CacheOutcome::Hit {
                    self.tally.hit_ns.push(response.total_ns);
                }
                self.tally.energy_pj[id] = result.energy_pj;
                self.tally
                    .completions
                    .push((Instant::now(), result.sim_cycles));
            }
            ResponseOutcome::Rejected(_) => self.tally.rejected += 1,
            ResponseOutcome::Failed(_) => self.tally.failed += 1,
        }
    }

    fn poll(&mut self) {
        while let Some(response) = self.service.recv_response(Duration::ZERO) {
            self.handle(response);
        }
    }

    /// Waits for every outstanding answer.
    pub fn drain(&mut self) -> Result<(), String> {
        while self.outstanding > 0 {
            let response = self
                .service
                .recv_response(ANSWER_TIMEOUT)
                .ok_or("service stopped answering")?;
            self.handle(response);
        }
        Ok(())
    }

    /// Sends each arrival at its due time, never blocking on the
    /// service: a full queue is a refusal. Latency runs from the due
    /// time, so a stalled client or service charges every request it
    /// delays.
    pub fn open_loop(&mut self, schedule: &[Arrival]) -> Result<(), String> {
        let start = Instant::now() + Duration::from_millis(2);
        for arrival in schedule {
            let request = self.next_request(arrival.template);
            let due = start + Duration::from_nanos(arrival.due_ns);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if let Some(response) = self.service.recv_response(due - now) {
                    self.handle(response);
                }
            }
            let lag = due.elapsed().as_nanos() as u64;
            *self.offset_ns.last_mut().expect("request recorded") = lag;
            self.tally.lag_ns.push(lag);
            self.tally.sent += 1;
            match self.service.try_submit(request) {
                Ok(()) => self.outstanding += 1,
                Err(SubmitError::QueueFull(_)) => self.tally.refused += 1,
                Err(SubmitError::ShutDown(_)) => return Err("service shut down mid-run".into()),
            }
            self.poll();
        }
        self.drain()
    }

    /// Keeps `window` requests outstanding, sending templates in
    /// `order` until it runs out or `until` passes.
    pub fn closed_loop(
        &mut self,
        order: impl IntoIterator<Item = usize>,
        window: usize,
        until: Option<Instant>,
    ) -> Result<(), String> {
        for template in order {
            if until.is_some_and(|t| Instant::now() >= t) {
                break;
            }
            while self.outstanding >= window {
                let response = self
                    .service
                    .recv_response(ANSWER_TIMEOUT)
                    .ok_or("service stopped answering")?;
                self.handle(response);
            }
            let request = self.next_request(template);
            self.tally.sent += 1;
            self.service
                .submit(request)
                .map_err(|e| format!("submit: {e}"))?;
            self.outstanding += 1;
            self.poll();
        }
        self.drain()
    }
}
