//! **tempus-fleet**: a deterministic multi-device fleet scheduler
//! above the per-device array ledger.
//!
//! One simulated Tempus device tops out at its `num_arrays` PE
//! arrays. Serving millions of users takes a scheduling layer that
//! multiplexes work across *replicas* of that fixed-resource core —
//! the two-level scheduler this crate supplies:
//!
//! ```text
//!              ┌──────────────── FleetScheduler ────────────────┐
//!   request ──▶│ deadline admission → device picker → backfill? │
//!              └──┬──────────────┬──────────────┬───────────────┘
//!                 ▼              ▼              ▼
//!            ArrayLedger    ArrayLedger    ArrayLedger   (one per
//!            dev 0          dev 1          dev 2          device)
//! ```
//!
//! * **Device picker** — every job is previewed on every active
//!   device ([`ArrayLedger::preview`], pure) and committed to the one
//!   with the earliest finish time (ties prefer the lowest device
//!   id). Placement order fixes everything: the fleet replays
//!   cycle-for-cycle from the admission sequence.
//! * **Look-ahead backfilling** ([`FleetConfig::backfill`]) — narrow
//!   jobs may jump into recorded idle gaps
//!   ([`ArrayLedger::preview_backfill`]) when the backfilled finish
//!   is no later than the best normal placement. A backfill moves no
//!   busy-until clock, so it provably delays no already-granted job.
//! * **Deadline-aware admission** — a request may carry a deadline in
//!   device cycles (derived from its class SLO). When the picked
//!   placement would finish past `arrival + deadline`, the scheduler
//!   searches narrower fixed widths on every device
//!   ([`ArrayLedger::preview_width`]) — narrowing trades critical
//!   path for gather wait — and rejects at admission when no width
//!   anywhere meets the deadline, instead of letting the job time out
//!   in the queue.
//! * **Power-capped Pareto admission**
//!   ([`FleetConfig::with_power_cap`]) — under a fleet-wide average
//!   power budget the picker walks every (device, width, DVFS
//!   ladder level) candidate, prices it from the plan's closed-form
//!   energy split, and commits the **lowest-energy** placement that
//!   meets the deadline and keeps concurrent power under the cap.
//! * **Per-array DVFS governor**
//!   ([`FleetConfig::with_freq_governor`]) — the occupancy-driven
//!   governor is threaded into every device ledger (elastic joins
//!   included); its frequency transitions surface as
//!   [`FleetEvent::FreqChange`]s.
//! * **Whole-core admission** ([`FleetScheduler::admit_exclusive`]) —
//!   the all-arrays policy's grants, committed like any other, so the
//!   fleet keeps the one device account under either policy.
//! * **Elastic sizing** ([`ElasticPolicy`]) — on ledger-clock
//!   boundaries the fleet compares backlog per active device against
//!   grow/shrink thresholds and joins (or revives) a device at the
//!   current clock ([`ArrayLedger::starting_at`]) or drains one, under
//!   a hard device budget. At most one action per boundary, all
//!   deterministic.
//!
//! **Bit-identity contract**: a 1-device fleet with backfilling off
//! and no deadlines makes exactly the placements of the single-device
//! `ArrayLedger` path — same grants, starts, waits, and device
//! account. Arrivals are pinned to the fleet *floor* (the earliest
//! cycle any active device frees), which on one device equals the
//! ledger horizon the single-device path already clamps to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tempus_core::freq;
use tempus_core::shard::{BudgetPlan, WidthCost};
use tempus_runtime::stats::PERIOD_NS;
use tempus_runtime::{ArrayLedger, DeviceSummary, GovernorPolicy, Placement};

/// Fleet shape and policy switches.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Devices at start-up (clamped to ≥ 1).
    pub devices: usize,
    /// PE arrays per device — every replica models the same silicon.
    pub arrays_per_device: usize,
    /// Allow narrow jobs to jump into recorded idle gaps when doing
    /// so finishes no later than the best normal placement.
    pub backfill: bool,
    /// Resize the fleet against backlog; `None` keeps it fixed.
    pub elastic: Option<ElasticPolicy>,
    /// Fleet-wide average-power budget in milli-mW (µW). `None` (the
    /// default) admits on finish time alone — the pre-DVFS picker
    /// bit-for-bit. `Some(cap)` switches admission to the
    /// energy-Pareto path: every (device, width, ladder-level)
    /// candidate is priced and the cheapest deadline- and
    /// power-feasible one wins.
    pub power_cap_milli_mw: Option<u64>,
    /// Per-array DVFS governor threaded into every device ledger
    /// (joins included); `None` keeps every array at the nominal
    /// clock.
    pub governor: Option<GovernorPolicy>,
}

impl FleetConfig {
    /// A fixed fleet of `devices` replicas with `arrays_per_device`
    /// arrays each, backfilling off.
    #[must_use]
    pub fn new(devices: usize, arrays_per_device: usize) -> Self {
        FleetConfig {
            devices: devices.max(1),
            arrays_per_device: arrays_per_device.max(1),
            backfill: false,
            elastic: None,
            power_cap_milli_mw: None,
            governor: None,
        }
    }

    /// Enables look-ahead backfilling (builder style).
    #[must_use]
    pub fn with_backfill(mut self) -> Self {
        self.backfill = true;
        self
    }

    /// Enables elastic sizing under `policy` (builder style).
    #[must_use]
    pub fn with_elastic(mut self, policy: ElasticPolicy) -> Self {
        self.elastic = Some(policy);
        self
    }

    /// Caps fleet-wide average power at `cap_mw` milliwatts (builder
    /// style): admission walks the (width × frequency-level) Pareto
    /// frontier and commits the lowest-energy placement whose
    /// concurrent power stays under the cap.
    #[must_use]
    pub fn with_power_cap(mut self, cap_mw: f64) -> Self {
        self.power_cap_milli_mw = Some((cap_mw.max(0.0) * 1000.0).round() as u64);
        self
    }

    /// Threads the occupancy-driven DVFS governor into every device
    /// ledger (builder style).
    #[must_use]
    pub fn with_freq_governor(mut self, governor: GovernorPolicy) -> Self {
        self.governor = Some(governor);
        self
    }
}

/// Elastic-sizing thresholds on the fleet's **backlog signal**: the
/// smoothed admission latency (device cycles from the fleet floor to
/// each admitted job's predicted finish, folded through an integer
/// EWMA). Above `grow_backlog_cycles` a device joins (reviving a
/// draining one first), below `shrink_backlog_cycles` one drains.
/// `min_devices ≤ active ≤ max_devices` always holds — `max_devices`
/// is the device budget.
#[derive(Debug, Clone, Copy)]
pub struct ElasticPolicy {
    /// Fewest devices the fleet may shrink to (clamped to ≥ 1).
    pub min_devices: usize,
    /// Device budget: most devices that may be live at once.
    pub max_devices: usize,
    /// Backlog signal above which a device joins.
    pub grow_backlog_cycles: u64,
    /// Backlog signal below which a device drains.
    pub shrink_backlog_cycles: u64,
}

/// A device's lifecycle within the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceStatus {
    /// Taking new grants.
    Active,
    /// Finishing what it has; retires when the fleet clock passes its
    /// makespan.
    Draining,
    /// Drained and left the fleet; its account remains in the summary.
    Retired,
    /// Circuit-broken after consecutive failures: taking no grants
    /// until a floor-boundary probe reports it healthy again.
    Quarantined,
}

/// Consecutive failures before the circuit breaker quarantines a
/// device (Healthy → Suspect on the first, Quarantined at this
/// count). The last active device is never quarantined — a degraded
/// fleet that still answers beats one that cannot.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Where a device sits in the failure circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthPhase {
    /// No failures outstanding.
    Healthy,
    /// 1 to [`QUARANTINE_THRESHOLD`]`- 1` consecutive failures: still
    /// taking grants, one bad streak from quarantine.
    Suspect,
    /// Circuit open: excluded from admission until a probe heals it.
    Quarantined,
}

/// Per-device breaker bookkeeping (all deterministic counts — no
/// wall-clock timers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceHealth {
    /// Failures since the last success on this device.
    pub consecutive_failures: u32,
    /// Probes sent while quarantined (resets on revival).
    pub probes: u32,
    /// Fleet floor when the device was quarantined.
    pub quarantined_at: Option<u64>,
    /// Fleet floor of the last probe — one probe per floor boundary.
    pub last_probe_floor: Option<u64>,
}

/// One device: its ledger plus lifecycle state.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// The device's array-slot ledger.
    pub ledger: ArrayLedger,
    /// Lifecycle state.
    pub status: DeviceStatus,
    /// Fleet clock at which the device joined.
    pub joined_at_cycle: u64,
    /// Circuit-breaker state.
    pub health: DeviceHealth,
}

impl DeviceState {
    /// The breaker phase this device is in.
    #[must_use]
    pub fn health_phase(&self) -> HealthPhase {
        if self.status == DeviceStatus::Quarantined {
            HealthPhase::Quarantined
        } else if self.health.consecutive_failures > 0 {
            HealthPhase::Suspect
        } else {
            HealthPhase::Healthy
        }
    }
}

/// A committed fleet placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPlacement {
    /// Index of the device that took the job.
    pub device: usize,
    /// The device-local placement (grant, start, duration, arrays).
    pub placement: Placement,
    /// The cycle deadlines and latencies are measured from: the fleet
    /// floor under [`FleetScheduler::admit`] (whose placements are
    /// previewed at arrival 0 — the queue semantics of the
    /// single-device path, which is also what lets a backfill land in
    /// a gap behind the floor), or the explicit arrival under
    /// [`FleetScheduler::admit_at`].
    pub arrival_cycle: u64,
}

impl FleetPlacement {
    /// Device cycles from admission to predicted finish — the latency
    /// a deadline is checked against. A backfilled job can finish
    /// behind the floor (it reclaims already-idle device time), which
    /// saturates to zero.
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        self.placement
            .finish_cycle()
            .saturating_sub(self.arrival_cycle)
    }
}

/// Why (and by how much) an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineMiss {
    /// The deadline the request carried, in device cycles.
    pub deadline_cycles: u64,
    /// The best achievable latency over every device, width and
    /// backfill candidate — always greater than the deadline.
    pub best_latency_cycles: u64,
}

/// Outcome of [`FleetScheduler::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetOutcome {
    /// The job was placed (and the ledger committed).
    Placed(FleetPlacement),
    /// No device at any width can meet the request's deadline.
    Rejected(DeadlineMiss),
}

impl FleetOutcome {
    /// The committed placement, when admitted.
    #[must_use]
    pub fn placement(&self) -> Option<&FleetPlacement> {
        match self {
            FleetOutcome::Placed(p) => Some(p),
            FleetOutcome::Rejected(_) => None,
        }
    }
}

/// One recorded scheduling decision, emitted (when recording is on)
/// in the order the scheduler made it. The fleet stays free of any
/// telemetry dependency: the serving layer drains these with
/// [`FleetScheduler::drain_events`] and lowers them onto its trace
/// tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// A device was previewed for the job with this predicted finish.
    Preview {
        /// Device index previewed.
        device: usize,
        /// Predicted finish cycle of the normal placement there.
        finish_cycle: u64,
    },
    /// The job was committed to a device.
    Route {
        /// Device that took the job.
        device: usize,
        /// Device cycle the job starts at.
        start_cycle: u64,
        /// Arrays granted.
        granted: usize,
    },
    /// The backfill take-rule fired: an idle-gap placement beat the
    /// normal pick and was chosen instead.
    Backfill {
        /// Device whose gap the job fills.
        device: usize,
        /// Device cycle the backfilled job starts at.
        start_cycle: u64,
    },
    /// Admission refused: no device at any width met the deadline.
    Reject {
        /// The deadline the request carried.
        deadline_cycles: u64,
        /// Best achievable latency across the fleet.
        best_latency_cycles: u64,
    },
    /// Elastic sizing put a device into draining.
    Drain {
        /// Device drained.
        device: usize,
        /// Fleet floor at the decision.
        cycle: u64,
    },
    /// Elastic sizing activated a device (revival or fresh join), or
    /// a healthy probe returned a quarantined device to service.
    Revive {
        /// Device activated.
        device: usize,
        /// Fleet floor at the decision.
        cycle: u64,
    },
    /// The circuit breaker quarantined a device after consecutive
    /// failures.
    Quarantine {
        /// Device quarantined.
        device: usize,
        /// Fleet floor at the decision.
        cycle: u64,
    },
    /// A quarantined device was probed.
    Probe {
        /// Device probed.
        device: usize,
        /// Fleet floor at the probe.
        cycle: u64,
        /// Whether the probe reported the device healthy.
        healthy: bool,
    },
    /// A quarantined device's grant was rolled back so the work could
    /// re-route.
    Rollback {
        /// Device whose ledger was unwound.
        device: usize,
        /// Start cycle of the reverted placement.
        start_cycle: u64,
    },
    /// A device array's clock domain stepped on the DVFS ladder (the
    /// occupancy governor committed a transition).
    FreqChange {
        /// Device whose array stepped.
        device: usize,
        /// Array whose clock domain stepped.
        array: usize,
        /// The new ladder level.
        level: u8,
        /// Device cycle the step takes effect.
        cycle: u64,
    },
}

/// Point-in-time fleet account: per-device summaries plus fleet-level
/// counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSummary {
    /// One summary per device ever in the fleet (retired included).
    pub devices: Vec<DeviceSummary>,
    /// Devices currently taking grants.
    pub active_devices: usize,
    /// Most devices ever live at once.
    pub peak_devices: usize,
    /// Elastic joins (including revivals of draining devices).
    pub joins: u64,
    /// Elastic drains.
    pub drains: u64,
    /// Admissions refused on deadline.
    pub rejections: u64,
    /// Devices circuit-broken into quarantine.
    pub quarantines: u64,
    /// Probes sent to quarantined devices.
    pub probes: u64,
    /// Quarantined-device grants rolled back for re-routing.
    pub rollbacks: u64,
    /// Quarantined devices returned to service by a healthy probe.
    pub revivals: u64,
    /// Highest concurrent average power any committed placement ever
    /// saw, in mW (0.0 until a placement carried an energy-annotated
    /// plan). The figure a cap is set against.
    pub peak_power_mw: f64,
    /// Closed-form energy (pJ) summed over every committed placement
    /// at its chosen ladder level — gross of rollbacks, so it prices
    /// the work the fleet *scheduled*, not what finally ran.
    pub planned_energy_pj: u64,
}

impl FleetSummary {
    /// The fleet viewed as one device: arrays sum, makespan is the
    /// max, counters sum. For a 1-device fleet this is bit-identical
    /// to that device's own [`DeviceSummary`].
    #[must_use]
    pub fn combined(&self) -> DeviceSummary {
        let mut combined = DeviceSummary::default();
        for d in &self.devices {
            combined.num_arrays += d.num_arrays;
            combined.makespan_cycles = combined.makespan_cycles.max(d.makespan_cycles);
            combined.busy_cycles += d.busy_cycles;
            combined.wait_cycles += d.wait_cycles;
            combined.placements += d.placements;
            combined.granted_sum += d.granted_sum;
            combined.idle_gap_count += d.idle_gap_count;
            combined.idle_gap_cycles += d.idle_gap_cycles;
            combined.backfills += d.backfills;
            for (slot, cycles) in d.level_residency.iter().enumerate() {
                combined.level_residency[slot] += cycles;
            }
            combined.freq_changes += d.freq_changes;
        }
        combined
    }

    /// Backfills committed across the fleet.
    #[must_use]
    pub fn backfills(&self) -> u64 {
        self.devices.iter().map(|d| d.backfills).sum()
    }
}

/// The two-level scheduler: a device picker over per-device ledgers.
#[derive(Debug, Clone)]
pub struct FleetScheduler {
    config: FleetConfig,
    devices: Vec<DeviceState>,
    /// Fleet floor at the last elastic action — one action per
    /// clock boundary.
    last_boundary: Option<u64>,
    /// The backlog signal: admission latency folded through a 3/4
    /// integer EWMA. Rejections feed in their best achievable latency
    /// (overload must register even when nothing is placed).
    recent_latency: u64,
    peak_devices: usize,
    joins: u64,
    drains: u64,
    rejections: u64,
    quarantines: u64,
    probes: u64,
    rollbacks: u64,
    revivals: u64,
    /// Committed placements still holding device time, as
    /// `(start, finish, power_milli_mw)` — the concurrency set the
    /// power cap is checked against. Entries whose finish has passed
    /// the fleet floor are pruned at every admission.
    active_power: Vec<(u64, u64, u64)>,
    peak_power_milli_mw: u64,
    planned_energy_pj: u64,
    /// Emit [`FleetEvent`]s into `events`; off by default so cloned
    /// what-if schedulers cost nothing.
    record: bool,
    events: Vec<FleetEvent>,
}

impl FleetScheduler {
    /// A fleet per `config`, all devices idle at cycle 0.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let devices: Vec<DeviceState> = (0..config.devices.max(1))
            .map(|_| DeviceState {
                ledger: Self::build_ledger(&config, 0),
                status: DeviceStatus::Active,
                joined_at_cycle: 0,
                health: DeviceHealth::default(),
            })
            .collect();
        let peak = devices.len();
        FleetScheduler {
            config,
            devices,
            last_boundary: None,
            recent_latency: 0,
            peak_devices: peak,
            joins: 0,
            drains: 0,
            rejections: 0,
            quarantines: 0,
            probes: 0,
            rollbacks: 0,
            revivals: 0,
            active_power: Vec::new(),
            peak_power_milli_mw: 0,
            planned_energy_pj: 0,
            record: false,
            events: Vec::new(),
        }
    }

    /// A device ledger with all arrays free at `cycle`, with the
    /// configured DVFS governor (if any) threaded in — used for the
    /// start-up devices and every elastic join alike.
    fn build_ledger(config: &FleetConfig, cycle: u64) -> ArrayLedger {
        let ledger = ArrayLedger::starting_at(config.arrays_per_device, cycle);
        match config.governor {
            Some(g) => ledger.with_governor(g),
            None => ledger,
        }
    }

    /// Turns [`FleetEvent`] recording on or off. Recording changes no
    /// scheduling decision — it only appends to the event log.
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
        if !on {
            self.events.clear();
        }
    }

    /// Takes every event recorded since the last drain, in decision
    /// order.
    pub fn drain_events(&mut self) -> Vec<FleetEvent> {
        std::mem::take(&mut self.events)
    }

    fn emit(&mut self, event: FleetEvent) {
        if self.record {
            self.events.push(event);
        }
    }

    /// The single-device fleet the serve dispatcher uses by default —
    /// bit-identical to driving one [`ArrayLedger`] directly.
    #[must_use]
    pub fn single_device(num_arrays: usize) -> Self {
        FleetScheduler::new(FleetConfig::new(1, num_arrays))
    }

    /// Every device ever in the fleet, retired ones included.
    #[must_use]
    pub fn devices(&self) -> &[DeviceState] {
        &self.devices
    }

    /// Devices currently taking grants.
    #[must_use]
    pub fn active_devices(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.status == DeviceStatus::Active)
            .count()
    }

    /// The fleet floor: the earliest cycle any active device frees an
    /// array. Admissions arrive at the floor, so deadlines are
    /// relative to the first cycle the fleet could possibly start the
    /// job. Monotone non-decreasing across admissions.
    #[must_use]
    pub fn floor(&self) -> u64 {
        self.devices
            .iter()
            .filter(|d| d.status == DeviceStatus::Active)
            .map(|d| d.ledger.horizon())
            .min()
            .unwrap_or(0)
    }

    /// The fleet account.
    #[must_use]
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            devices: self.devices.iter().map(|d| d.ledger.summary()).collect(),
            active_devices: self.active_devices(),
            peak_devices: self.peak_devices,
            joins: self.joins,
            drains: self.drains,
            rejections: self.rejections,
            quarantines: self.quarantines,
            probes: self.probes,
            rollbacks: self.rollbacks,
            revivals: self.revivals,
            peak_power_mw: self.peak_power_milli_mw as f64 / 1000.0,
            planned_energy_pj: self.planned_energy_pj,
        }
    }

    /// Admits one job: elastic step, device pick, backfill, deadline
    /// check — then commits the winning placement. `deadline_cycles`
    /// is measured from the fleet floor at admission; `None` admits
    /// unconditionally. Placements are previewed at arrival 0 — the
    /// single-device queue semantics — so a 1-device fleet replays
    /// the `ArrayLedger` path bit-for-bit.
    pub fn admit(&mut self, plan: &BudgetPlan, deadline_cycles: Option<u64>) -> FleetOutcome {
        self.elastic_step();
        let floor = self.floor();
        self.admit_inner(plan, deadline_cycles, 0, floor)
    }

    /// Admits one job that **arrives** at `arrival_cycle` of device
    /// time (open-loop traffic): no placement starts before the
    /// arrival, and deadlines and
    /// [`FleetPlacement::latency_cycles`] are measured from it — so
    /// queueing delay behind a backlog counts against the SLO, which
    /// [`admit`](Self::admit)'s floor-relative clock deliberately
    /// excludes.
    pub fn admit_at(
        &mut self,
        plan: &BudgetPlan,
        deadline_cycles: Option<u64>,
        arrival_cycle: u64,
    ) -> FleetOutcome {
        self.elastic_step();
        self.admit_inner(plan, deadline_cycles, arrival_cycle, arrival_cycle)
    }

    /// The shared admission body: previews at `arrival`, measures
    /// latency from `reference`.
    fn admit_inner(
        &mut self,
        plan: &BudgetPlan,
        deadline_cycles: Option<u64>,
        arrival: u64,
        reference: u64,
    ) -> FleetOutcome {
        // Placements whose finish has passed the floor can no longer
        // overlap anything new (every new start is at or past the
        // floor): drop them from the power concurrency set.
        let power_floor = self.floor();
        self.active_power
            .retain(|&(_, finish, _)| finish > power_floor);
        if let Some(cap) = self.config.power_cap_milli_mw {
            return self.admit_capped(plan, deadline_cycles, arrival, reference, cap);
        }
        // Normal path: earliest finish across active devices, ties to
        // the lowest id (strict `<` on the scan keeps the first).
        let mut chosen: Option<(usize, Placement)> = None;
        let mut previews: Vec<FleetEvent> = Vec::new();
        for (idx, dev) in self.active_iter() {
            let p = dev.ledger.preview(plan, arrival);
            if self.record {
                previews.push(FleetEvent::Preview {
                    device: idx,
                    finish_cycle: p.finish_cycle(),
                });
            }
            if chosen
                .as_ref()
                .is_none_or(|(_, best)| p.finish_cycle() < best.finish_cycle())
            {
                chosen = Some((idx, p));
            }
        }
        self.events.extend(previews);
        let mut chosen = chosen.expect("fleet always has an active device");

        // Backfill: taken when it finishes no later than the normal
        // pick — strictly better use of the same device-time, and it
        // cannot delay any granted job.
        if self.config.backfill {
            let mut best_fill: Option<(usize, Placement)> = None;
            for (idx, dev) in self.active_iter() {
                if let Some(p) = dev.ledger.preview_backfill(plan, arrival) {
                    if best_fill
                        .as_ref()
                        .is_none_or(|(_, b)| p.finish_cycle() < b.finish_cycle())
                    {
                        best_fill = Some((idx, p));
                    }
                }
            }
            if let Some(fill) = best_fill {
                if fill.1.finish_cycle() <= chosen.1.finish_cycle() {
                    self.emit(FleetEvent::Backfill {
                        device: fill.0,
                        start_cycle: fill.1.start_cycle,
                    });
                    chosen = fill;
                }
            }
        }

        // Deadline admission: when the pick blows the deadline, walk
        // narrower fixed widths on every device — narrowing shortens
        // the gather wait at the price of critical path — and reject
        // outright when nothing anywhere meets it.
        if let Some(deadline) = deadline_cycles {
            if chosen.1.finish_cycle().saturating_sub(reference) > deadline {
                let mut best = chosen.clone();
                for (idx, dev) in self.active_iter() {
                    for width in 1..=plan.arrays.max(1) {
                        let p = dev.ledger.preview_width(plan, width, arrival);
                        if p.finish_cycle() < best.1.finish_cycle() {
                            best = (idx, p);
                        }
                    }
                }
                let best_latency = best.1.finish_cycle().saturating_sub(reference);
                if best_latency > deadline {
                    self.rejections += 1;
                    self.observe_latency(best_latency);
                    self.emit(FleetEvent::Reject {
                        deadline_cycles: deadline,
                        best_latency_cycles: best_latency,
                    });
                    return FleetOutcome::Rejected(DeadlineMiss {
                        deadline_cycles: deadline,
                        best_latency_cycles: best_latency,
                    });
                }
                chosen = best;
            }
        }

        let (device, placement) = chosen;
        self.devices[device].ledger.apply(&placement);
        let cost = plan.cost_at(placement.assignment.granted);
        FleetOutcome::Placed(self.book(device, placement, cost, reference))
    }

    /// The power-capped admission body: every active device × fixed
    /// width × DVFS ladder level is previewed and priced, and the
    /// **lowest-energy** candidate that meets the deadline (measured
    /// from `reference`) *and* keeps concurrent fleet power at or
    /// under `cap` over its interval wins — energy-first where the
    /// uncapped picker is finish-first. Ties break to the earlier
    /// finish, then scan order (lower device id, shallower level).
    /// The ladder walk supersedes any governor level on the previewed
    /// arrays: under a cap the admission decision owns the operating
    /// point. On rejection, `best_latency_cycles` reports the best
    /// latency over every candidate irrespective of power — it can
    /// sit below the deadline when power alone blocked admission.
    fn admit_capped(
        &mut self,
        plan: &BudgetPlan,
        deadline_cycles: Option<u64>,
        arrival: u64,
        reference: u64,
        cap: u64,
    ) -> FleetOutcome {
        let mut chosen: Option<(usize, Placement, u64)> = None;
        let mut best_latency = u64::MAX;
        let max_width = plan.arrays.max(1);
        let device_ids: Vec<usize> = self.active_iter().map(|(idx, _)| idx).collect();
        for idx in device_ids {
            for width in 1..=max_width {
                let base = self.devices[idx].ledger.preview_width(plan, width, arrival);
                if width == max_width {
                    self.emit(FleetEvent::Preview {
                        device: idx,
                        finish_cycle: base.finish_cycle(),
                    });
                }
                for lvl in 0..freq::NUM_LEVELS as u8 {
                    let p = base.at_level(lvl);
                    let finish = p.finish_cycle();
                    let latency = finish.saturating_sub(reference);
                    best_latency = best_latency.min(latency);
                    if deadline_cycles.is_some_and(|d| latency > d) {
                        continue;
                    }
                    let energy = plan.cost_at(p.assignment.granted).energy_at(lvl);
                    let power = Self::power_milli_of(energy, p.duration_cycles);
                    if power > 0 && self.overlap_power(p.start_cycle, finish) + power > cap {
                        continue;
                    }
                    let better = chosen.as_ref().is_none_or(|(_, best, best_energy)| {
                        energy < *best_energy
                            || (energy == *best_energy && finish < best.finish_cycle())
                    });
                    if better {
                        chosen = Some((idx, p, energy));
                    }
                }
            }
        }
        let Some((device, placement, _)) = chosen else {
            let best_latency = if best_latency == u64::MAX {
                0
            } else {
                best_latency
            };
            let deadline = deadline_cycles.unwrap_or(0);
            self.rejections += 1;
            self.observe_latency(best_latency);
            self.emit(FleetEvent::Reject {
                deadline_cycles: deadline,
                best_latency_cycles: best_latency,
            });
            return FleetOutcome::Rejected(DeadlineMiss {
                deadline_cycles: deadline,
                best_latency_cycles: best_latency,
            });
        };
        self.devices[device].ledger.apply(&placement);
        let cost = plan.cost_at(placement.assignment.granted);
        FleetOutcome::Placed(self.book(device, placement, cost, reference))
    }

    /// Admits one whole-core job, unconditionally: the
    /// [`ArrayLedger::place_exclusive`] placement of `cost` on the
    /// active device whose last array frees first (ties to the lowest
    /// id). `arrival_cycle` 0 queues it at the floor, as
    /// [`admit`](Self::admit) does; a later one is its arrival, as
    /// under [`admit_at`](Self::admit_at).
    pub fn admit_exclusive(&mut self, cost: &WidthCost, arrival_cycle: u64) -> FleetPlacement {
        let reference = arrival_cycle.max(self.floor());
        let (device, _) = self
            .active_iter()
            .min_by_key(|(_, d)| d.ledger.makespan())
            .expect("fleet always has an active device");
        let placement = self.devices[device].ledger.place_exclusive(
            cost.critical_path_cycles,
            cost.total_array_cycles,
            arrival_cycle,
        );
        self.book(device, placement, cost, reference)
    }

    /// Books `placement`, just applied to `device`'s ledger — every
    /// admission path's tail. `cost` prices the granted width; latency
    /// runs from `reference`.
    fn book(
        &mut self,
        device: usize,
        placement: Placement,
        cost: &WidthCost,
        reference: u64,
    ) -> FleetPlacement {
        self.emit(FleetEvent::Route {
            device,
            start_cycle: placement.start_cycle,
            granted: placement.assignment.granted,
        });
        self.track_committed(cost, &placement);
        self.lower_freq_changes(device);
        let placed = FleetPlacement {
            device,
            placement,
            arrival_cycle: reference,
        };
        self.observe_latency(placed.latency_cycles());
        placed
    }

    /// Closed-form average power of `energy_pj` spread over
    /// `duration_cycles` device cycles, in milli-mW (pJ over ns is
    /// mW exactly). Zero for zero-energy plans — the planner-free
    /// paths carry no annotation and never register cap pressure.
    fn power_milli_of(energy_pj: u64, duration_cycles: u64) -> u64 {
        if energy_pj == 0 || duration_cycles == 0 {
            0
        } else {
            (energy_pj as f64 * 1000.0 / (duration_cycles as f64 * PERIOD_NS)).round() as u64
        }
    }

    /// Sum of tracked placement powers overlapping `[start, finish)`,
    /// in milli-mW — a conservative concurrency reading (placements
    /// overlapping anywhere in the window count in full).
    fn overlap_power(&self, start: u64, finish: u64) -> u64 {
        self.active_power
            .iter()
            .filter(|&&(s, f, _)| s < finish && f > start)
            .map(|&(_, _, p)| p)
            .sum()
    }

    /// Books a committed placement's energy and power into the fleet
    /// account and the cap concurrency set. Pure bookkeeping — no
    /// scheduling decision reads it until a cap is configured.
    fn track_committed(&mut self, cost: &WidthCost, placement: &Placement) {
        let energy = cost.energy_at(placement.freq_level);
        self.planned_energy_pj += energy;
        let power = Self::power_milli_of(energy, placement.duration_cycles);
        if power > 0 {
            let concurrent =
                self.overlap_power(placement.start_cycle, placement.finish_cycle()) + power;
            self.peak_power_milli_mw = self.peak_power_milli_mw.max(concurrent);
            self.active_power
                .push((placement.start_cycle, placement.finish_cycle(), power));
        }
    }

    /// Drains the device ledger's committed governor transitions and
    /// lowers them into [`FleetEvent::FreqChange`]s (drained even
    /// when recording is off so the pending list stays bounded).
    fn lower_freq_changes(&mut self, device: usize) {
        for fc in self.devices[device].ledger.drain_freq_changes() {
            self.emit(FleetEvent::FreqChange {
                device,
                array: fc.array,
                level: fc.level,
                cycle: fc.cycle,
            });
        }
    }

    /// Folds one admission's latency into the backlog signal.
    fn observe_latency(&mut self, latency: u64) {
        self.recent_latency = (self.recent_latency * 3 + latency) / 4;
    }

    /// Active devices with their indices, in deterministic id order.
    fn active_iter(&self) -> impl Iterator<Item = (usize, &DeviceState)> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.status == DeviceStatus::Active)
    }

    /// Retires drained devices and takes at most one elastic action
    /// (join or drain) per fleet-clock boundary.
    fn elastic_step(&mut self) {
        let floor = self.floor();
        for dev in &mut self.devices {
            if dev.status == DeviceStatus::Draining && dev.ledger.makespan() <= floor {
                dev.status = DeviceStatus::Retired;
            }
        }
        let Some(policy) = self.config.elastic else {
            return;
        };
        // One action per boundary: act only when the floor has moved
        // past the last action's clock (or on the very first look).
        if self.last_boundary.is_some_and(|b| floor <= b) {
            return;
        }
        let active: Vec<usize> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.status == DeviceStatus::Active)
            .map(|(i, _)| i)
            .collect();
        let backlog = self.recent_latency;
        let min = policy.min_devices.max(1);
        let max = policy.max_devices.max(min);
        if backlog > policy.grow_backlog_cycles && active.len() < max {
            // Revive the lowest-id draining device, else a fresh
            // ledger joins with its arrays free at the current clock.
            let joined = if let Some(idx) = self
                .devices
                .iter()
                .position(|d| d.status == DeviceStatus::Draining)
            {
                self.devices[idx].status = DeviceStatus::Active;
                idx
            } else {
                self.devices.push(DeviceState {
                    ledger: Self::build_ledger(&self.config, floor),
                    status: DeviceStatus::Active,
                    joined_at_cycle: floor,
                    health: DeviceHealth::default(),
                });
                self.devices.len() - 1
            };
            self.emit(FleetEvent::Revive {
                device: joined,
                cycle: floor,
            });
            self.joins += 1;
            self.peak_devices = self.peak_devices.max(self.active_devices());
            self.last_boundary = Some(floor);
        } else if backlog < policy.shrink_backlog_cycles && active.len() > min {
            // Drain the highest-id active device (the latest joiner):
            // it takes no new grants and retires at its makespan.
            let idx = *active.last().expect("active.len() > min >= 1");
            self.devices[idx].status = DeviceStatus::Draining;
            self.emit(FleetEvent::Drain {
                device: idx,
                cycle: floor,
            });
            self.drains += 1;
            self.last_boundary = Some(floor);
        } else {
            self.last_boundary = Some(floor);
        }
    }

    /// Records a successful execution on `device`: the circuit
    /// breaker resets to Healthy. Quarantined devices are untouched —
    /// only a probe revives them.
    pub fn report_success(&mut self, device: usize) {
        if let Some(dev) = self.devices.get_mut(device) {
            if dev.status != DeviceStatus::Quarantined {
                dev.health.consecutive_failures = 0;
            }
        }
    }

    /// Records a failed execution attempt on `device`. At
    /// [`QUARANTINE_THRESHOLD`] consecutive failures the breaker
    /// opens: the device is quarantined and takes no new grants until
    /// a probe heals it — unless it is the fleet's last active
    /// device, which stays Suspect so the fleet can still answer.
    /// Returns `true` when this call quarantined the device.
    pub fn report_failure(&mut self, device: usize) -> bool {
        let floor = self.floor();
        let Some(dev) = self.devices.get_mut(device) else {
            return false;
        };
        if dev.status != DeviceStatus::Active {
            return false;
        }
        dev.health.consecutive_failures = dev.health.consecutive_failures.saturating_add(1);
        if dev.health.consecutive_failures < QUARANTINE_THRESHOLD {
            return false;
        }
        if self.active_devices() <= 1 {
            return false;
        }
        let dev = &mut self.devices[device];
        dev.status = DeviceStatus::Quarantined;
        dev.health.quarantined_at = Some(floor);
        dev.health.last_probe_floor = None;
        dev.health.probes = 0;
        self.quarantines += 1;
        self.emit(FleetEvent::Quarantine {
            device,
            cycle: floor,
        });
        true
    }

    /// Unwinds a committed placement on `device` so the work can
    /// re-route (used when the device is quarantined with the grant
    /// still pending). Delegates to [`ArrayLedger::revert`]; returns
    /// its cleanliness flag. The device account stays an exact census
    /// of live grants either way.
    pub fn rollback(&mut self, device: usize, placement: &Placement) -> bool {
        let Some(dev) = self.devices.get_mut(device) else {
            return false;
        };
        let clean = dev.ledger.revert(placement);
        // The reverted grant no longer holds device time: release its
        // entry in the power concurrency set (peak and planned energy
        // stay gross — they record what was scheduled).
        if let Some(pos) = self
            .active_power
            .iter()
            .position(|&(s, f, _)| s == placement.start_cycle && f == placement.finish_cycle())
        {
            self.active_power.remove(pos);
        }
        self.rollbacks += 1;
        self.emit(FleetEvent::Rollback {
            device,
            start_cycle: placement.start_cycle,
        });
        clean
    }

    /// Quarantined devices due a probe: at most one probe per device
    /// per fleet-floor boundary, so the cadence is deterministic and
    /// driven by the fleet making progress elsewhere. Report each
    /// probe's outcome with [`record_probe`](Self::record_probe).
    #[must_use]
    pub fn probe_candidates(&self) -> Vec<usize> {
        let floor = self.floor();
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.status == DeviceStatus::Quarantined
                    && d.health.last_probe_floor.is_none_or(|b| floor > b)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Records a probe outcome for a quarantined device. A healthy
    /// probe revives it: status back to Active, breaker reset, a
    /// [`FleetEvent::Revive`] emitted. An unhealthy probe leaves it
    /// quarantined until the next floor boundary.
    pub fn record_probe(&mut self, device: usize, healthy: bool) {
        let floor = self.floor();
        let Some(dev) = self.devices.get_mut(device) else {
            return;
        };
        if dev.status != DeviceStatus::Quarantined {
            return;
        }
        dev.health.probes = dev.health.probes.saturating_add(1);
        dev.health.last_probe_floor = Some(floor);
        self.probes += 1;
        self.emit(FleetEvent::Probe {
            device,
            cycle: floor,
            healthy,
        });
        if healthy {
            let dev = &mut self.devices[device];
            dev.status = DeviceStatus::Active;
            dev.health = DeviceHealth::default();
            self.revivals += 1;
            self.peak_devices = self.peak_devices.max(self.active_devices());
            self.emit(FleetEvent::Revive {
                device,
                cycle: floor,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A perfectly scaling cost curve: `total / w` cycles at width w.
    fn linear_plan(arrays: usize, max: usize, total: u64) -> BudgetPlan {
        let widths: Vec<WidthCost> = (1..=max)
            .map(|w| WidthCost {
                arrays: w,
                used: w,
                critical_path_cycles: total / w as u64,
                reduction_cycles: 0,
                total_array_cycles: total,
                dynamic_energy_pj: 0,
                static_energy_pj: 0,
            })
            .collect();
        BudgetPlan {
            arrays,
            critical_path_cycles: widths[arrays - 1].critical_path_cycles,
            widths,
        }
    }

    fn place(fleet: &mut FleetScheduler, plan: &BudgetPlan) -> FleetPlacement {
        match fleet.admit(plan, None) {
            FleetOutcome::Placed(p) => p,
            FleetOutcome::Rejected(m) => panic!("unexpected rejection: {m:?}"),
        }
    }

    #[test]
    fn one_device_fleet_matches_the_ledger_exactly() {
        let mut fleet = FleetScheduler::single_device(4);
        let mut ledger = ArrayLedger::new(4);
        let plans = [
            BudgetPlan::single(300),
            linear_plan(4, 4, 2000),
            BudgetPlan::single(50),
            linear_plan(2, 3, 600),
            linear_plan(3, 3, 1200),
        ];
        for plan in &plans {
            let fleet_p = place(&mut fleet, plan);
            let direct = ledger.place(plan, 0);
            assert_eq!(fleet_p.device, 0);
            assert_eq!(fleet_p.placement, direct);
        }
        // Whole-core jobs, queued at the floor and arriving past it.
        for arrival in [0, 10_000] {
            let floor = fleet.floor();
            let placed = fleet.admit_exclusive(plans[1].cost_at(4), arrival);
            assert_eq!(placed.placement, ledger.place_exclusive(500, 2000, arrival));
            assert_eq!(placed.arrival_cycle, arrival.max(floor));
        }
        assert_eq!(fleet.summary().combined(), ledger.summary());
    }

    #[test]
    fn picker_routes_to_the_earliest_finishing_device() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(2, 2));
        // Fill device 0, then the picker must send the next job to
        // the idle device 1.
        let a = place(&mut fleet, &linear_plan(2, 2, 1000));
        assert_eq!(a.device, 0, "ties break to the lowest id");
        let b = place(&mut fleet, &linear_plan(2, 2, 1000));
        assert_eq!(b.device, 1);
        assert_eq!(b.placement.start_cycle, 0);
        // Both busy until 500 — back to device 0 on the tie.
        let c = place(&mut fleet, &linear_plan(2, 2, 1000));
        assert_eq!(c.device, 0);
        assert_eq!(c.placement.start_cycle, 500);
    }

    #[test]
    fn backfill_reclaims_gaps_without_delaying_grants() {
        let config = FleetConfig::new(1, 4).with_backfill();
        let mut fleet = FleetScheduler::new(config);
        // Open a gather gap: three short jobs, one long, then a wide
        // job that waits for all four arrays.
        for _ in 0..3 {
            let _ = place(&mut fleet, &BudgetPlan::single(100));
        }
        let _ = place(&mut fleet, &BudgetPlan::single(400));
        let _ = place(&mut fleet, &linear_plan(4, 4, 4000));
        let clocks: Vec<u64> = fleet.devices()[0].ledger.busy_clocks().to_vec();
        let idle_before = fleet.summary().combined().idle_gap_cycles;
        // A 200-cycle job fits the [100, 400) gaps: it backfills and
        // no granted job's finish moves.
        let p = place(&mut fleet, &BudgetPlan::single(200));
        assert!(p.placement.backfilled);
        assert_eq!(p.placement.start_cycle, 100);
        assert_eq!(fleet.devices()[0].ledger.busy_clocks(), clocks.as_slice());
        let summary = fleet.summary();
        assert_eq!(summary.backfills(), 1);
        assert_eq!(summary.combined().idle_gap_cycles, idle_before - 200);
    }

    #[test]
    fn deadline_admission_narrows_or_rejects() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(1, 4));
        // Array clocks 0,0,0,1000: a wide job gathering all 4 starts
        // at 1000.
        let _ = place(&mut fleet, &BudgetPlan::single(1000));
        // Unconstrained, the 1200-cycle job shrinks to 3 arrays and
        // finishes at 400 — comfortably inside a 500-cycle deadline.
        let plan = linear_plan(4, 4, 1200);
        match fleet.clone().admit(&plan, Some(500)) {
            FleetOutcome::Placed(p) => {
                assert_eq!(p.placement.assignment.granted, 3);
                assert!(p.latency_cycles() <= 500);
            }
            FleetOutcome::Rejected(m) => panic!("should narrow, got {m:?}"),
        }
        // A 300-cycle deadline is unattainable at any width: width 4
        // waits 1000 cycles, widths 1-3 run ≥ 400 cycles.
        match fleet.admit(&plan, Some(300)) {
            FleetOutcome::Placed(p) => panic!("should reject, got {p:?}"),
            FleetOutcome::Rejected(m) => {
                assert_eq!(m.deadline_cycles, 300);
                assert_eq!(m.best_latency_cycles, 400);
            }
        }
        assert_eq!(fleet.summary().rejections, 1);
    }

    #[test]
    fn elastic_grows_on_backlog_and_drains_when_idle() {
        let policy = ElasticPolicy {
            min_devices: 1,
            max_devices: 3,
            grow_backlog_cycles: 500,
            shrink_backlog_cycles: 100,
        };
        let mut fleet = FleetScheduler::new(FleetConfig::new(1, 2).with_elastic(policy));
        // Pile on backlog: each 1000-cycle single-array job stacks.
        for _ in 0..6 {
            let _ = place(&mut fleet, &BudgetPlan::single(1000));
        }
        // The floor has advanced and backlog/device is deep: the next
        // admissions trigger joins up to the budget.
        for _ in 0..6 {
            let _ = place(&mut fleet, &BudgetPlan::single(1000));
        }
        let summary = fleet.summary();
        assert!(summary.joins >= 1, "backlog should grow the fleet");
        assert!(summary.peak_devices >= 2);
        assert!(summary.active_devices <= 3, "device budget holds");
        // Joined devices start at the fleet clock, not at zero.
        for dev in &fleet.devices()[1..] {
            assert!(dev.joined_at_cycle > 0);
            assert!(dev.ledger.horizon() >= dev.joined_at_cycle);
        }
        // Light traffic drains the extras back toward the minimum:
        // trickle tiny jobs so boundaries keep advancing.
        for _ in 0..40 {
            let _ = place(&mut fleet, &BudgetPlan::single(10));
        }
        assert!(fleet.summary().drains >= 1, "idle fleet should shrink");
    }

    #[test]
    fn open_loop_arrivals_charge_queueing_delay_to_the_slo() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(1, 1));
        // Overload: 1000-cycle jobs arriving every 400 cycles. The
        // first meets its 1500-cycle deadline; by the third the
        // backlog alone blows it, and `admit_at` rejects while
        // `admit`'s floor-relative clock would have admitted forever.
        let plan = BudgetPlan::single(1000);
        let mut arrival = 0;
        let mut placed = 0u64;
        let mut rejected = 0u64;
        for _ in 0..8 {
            match fleet.admit_at(&plan, Some(1500), arrival) {
                FleetOutcome::Placed(p) => {
                    assert!(p.placement.start_cycle >= arrival);
                    assert!(p.latency_cycles() <= 1500);
                    placed += 1;
                }
                FleetOutcome::Rejected(m) => {
                    assert!(m.best_latency_cycles > 1500);
                    rejected += 1;
                }
            }
            arrival += 400;
        }
        assert!(placed >= 2, "an empty fleet must admit");
        assert!(rejected >= 1, "overload must reject");
        // A late arrival into an idle fleet starts at its arrival,
        // not at the ledger horizon.
        let makespan = fleet.devices()[0].ledger.makespan();
        let p = match fleet.admit_at(&plan, None, makespan + 5000) {
            FleetOutcome::Placed(p) => p,
            FleetOutcome::Rejected(m) => panic!("{m:?}"),
        };
        assert_eq!(p.placement.start_cycle, makespan + 5000);
        assert_eq!(p.latency_cycles(), 1000);
    }

    #[test]
    fn recording_logs_decisions_without_changing_them() {
        let config = FleetConfig::new(2, 4).with_backfill();
        let mut silent = FleetScheduler::new(config.clone());
        let mut recorded = FleetScheduler::new(config);
        recorded.set_recording(true);
        let plans = [
            BudgetPlan::single(100),
            BudgetPlan::single(400),
            linear_plan(4, 4, 4000),
            BudgetPlan::single(200),
        ];
        for plan in &plans {
            let a = place(&mut silent, plan);
            let b = place(&mut recorded, plan);
            assert_eq!(a, b, "recording must not perturb placement");
        }
        assert!(silent.drain_events().is_empty(), "off by default");
        let events = recorded.drain_events();
        // Every admission previews both devices and routes once.
        let previews = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Preview { .. }))
            .count();
        let routes = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Route { .. }))
            .count();
        assert_eq!(previews, plans.len() * 2);
        assert_eq!(routes, plans.len());
        assert!(recorded.drain_events().is_empty(), "drain takes all");
        // A deadline miss logs a rejection.
        let miss = linear_plan(4, 4, 4000);
        let _ = recorded.admit(&miss, Some(1));
        assert!(recorded
            .drain_events()
            .iter()
            .any(|e| matches!(e, FleetEvent::Reject { .. })));
    }

    #[test]
    fn circuit_breaker_quarantines_after_consecutive_failures() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(2, 2));
        fleet.set_recording(true);
        // Two failures leave the device Suspect and still routable.
        assert!(!fleet.report_failure(1));
        assert!(!fleet.report_failure(1));
        assert_eq!(fleet.devices()[1].health_phase(), HealthPhase::Suspect);
        assert_eq!(fleet.active_devices(), 2);
        // A success in between resets the breaker.
        fleet.report_success(1);
        assert_eq!(fleet.devices()[1].health_phase(), HealthPhase::Healthy);
        // Three consecutive failures open the circuit.
        assert!(!fleet.report_failure(1));
        assert!(!fleet.report_failure(1));
        assert!(fleet.report_failure(1));
        assert_eq!(fleet.devices()[1].health_phase(), HealthPhase::Quarantined);
        assert_eq!(fleet.active_devices(), 1);
        assert_eq!(fleet.summary().quarantines, 1);
        // All new work routes around the quarantined device.
        for _ in 0..4 {
            assert_eq!(place(&mut fleet, &BudgetPlan::single(100)).device, 0);
        }
        assert!(fleet
            .drain_events()
            .iter()
            .any(|e| matches!(e, FleetEvent::Quarantine { device: 1, .. })));
    }

    #[test]
    fn last_active_device_is_never_quarantined() {
        let mut fleet = FleetScheduler::single_device(2);
        for _ in 0..10 {
            assert!(!fleet.report_failure(0), "last device must keep serving");
        }
        assert_eq!(fleet.devices()[0].health_phase(), HealthPhase::Suspect);
        assert_eq!(fleet.active_devices(), 1);
        let _ = place(&mut fleet, &BudgetPlan::single(100));
    }

    #[test]
    fn rollback_reopens_capacity_for_rerouting() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(2, 2));
        // Park both devices at cycle 500, then land one more job on
        // device 0 (the tie-break winner).
        let _ = place(&mut fleet, &linear_plan(2, 2, 1000));
        let _ = place(&mut fleet, &linear_plan(2, 2, 1000));
        let victim = place(&mut fleet, &linear_plan(2, 2, 1000));
        assert_eq!(victim.device, 0);
        let census_before = fleet.summary().combined().placements;
        // Quarantine device 0 and unwind its pending grant.
        for _ in 0..QUARANTINE_THRESHOLD {
            fleet.report_failure(0);
        }
        assert!(fleet.rollback(victim.device, &victim.placement));
        let summary = fleet.summary();
        assert_eq!(summary.combined().placements, census_before - 1);
        assert_eq!(summary.rollbacks, 1);
        // The re-routed job lands on the surviving device at the same
        // start its sibling got there — no capacity was orphaned.
        let rerouted = place(&mut fleet, &linear_plan(2, 2, 1000));
        assert_eq!(rerouted.device, 1);
        assert_eq!(rerouted.placement.start_cycle, 500);
    }

    #[test]
    fn quarantine_probe_revive_cycle_is_deterministic() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(2, 2));
        fleet.set_recording(true);
        for _ in 0..QUARANTINE_THRESHOLD {
            fleet.report_failure(1);
        }
        assert_eq!(fleet.devices()[1].status, DeviceStatus::Quarantined);
        // First probe is due immediately; a sick probe holds the
        // quarantine and blocks re-probing until the floor moves.
        assert_eq!(fleet.probe_candidates(), vec![1]);
        fleet.record_probe(1, false);
        assert!(fleet.probe_candidates().is_empty());
        // Work on the healthy device advances the floor → probe due.
        let _ = place(&mut fleet, &linear_plan(2, 2, 1000));
        let _ = place(&mut fleet, &linear_plan(2, 2, 1000));
        assert_eq!(fleet.probe_candidates(), vec![1]);
        fleet.record_probe(1, true);
        assert_eq!(fleet.devices()[1].status, DeviceStatus::Active);
        assert_eq!(fleet.devices()[1].health_phase(), HealthPhase::Healthy);
        let summary = fleet.summary();
        assert_eq!(summary.probes, 2);
        assert_eq!(summary.revivals, 1);
        // The trace tells the whole story in order.
        let events = fleet.drain_events();
        let tale: Vec<&FleetEvent> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FleetEvent::Quarantine { .. }
                        | FleetEvent::Probe { .. }
                        | FleetEvent::Revive { .. }
                )
            })
            .collect();
        assert!(matches!(tale[0], FleetEvent::Quarantine { device: 1, .. }));
        assert!(matches!(
            tale[1],
            FleetEvent::Probe {
                device: 1,
                healthy: false,
                ..
            }
        ));
        assert!(matches!(
            tale[2],
            FleetEvent::Probe {
                device: 1,
                healthy: true,
                ..
            }
        ));
        assert!(matches!(tale[3], FleetEvent::Revive { device: 1, .. }));
        // Revived, the device takes work again.
        let p = place(&mut fleet, &BudgetPlan::single(100));
        assert_eq!(p.device, 1);
    }

    /// A single-width plan annotated with the closed-form energy
    /// split: 1000 critical-path cycles, 97 nJ dynamic + 3 nJ static
    /// — 25 mW average power at the nominal clock (100 000 pJ over
    /// 4000 ns).
    fn energy_plan() -> BudgetPlan {
        let mut plan = BudgetPlan::single(1000);
        plan.widths[0].dynamic_energy_pj = 97_000;
        plan.widths[0].static_energy_pj = 3_000;
        plan
    }

    #[test]
    fn uncapped_fleet_tracks_peak_power_without_changing_placements() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(1, 1));
        let p = place(&mut fleet, &energy_plan());
        assert_eq!(p.placement.freq_level, 0, "no cap, no governor: nominal");
        assert_eq!(p.placement.duration_cycles, 1000);
        let summary = fleet.summary();
        assert!((summary.peak_power_mw - 25.0).abs() < 1e-9);
        assert_eq!(summary.planned_energy_pj, 100_000);
    }

    #[test]
    fn power_cap_picks_the_cheapest_feasible_ladder_level() {
        // Cap at 60% of the 25 mW nominal peak. L0 (25 mW) and L1
        // (~16.4 mW) blow the 15 mW budget; L3 meets it but its 2×
        // stretch blows the 1.5× deadline; L2 (~10.9 mW, 1500
        // cycles) is the unique feasible point — and the admission
        // must find it.
        let mut fleet = FleetScheduler::new(FleetConfig::new(1, 1).with_power_cap(15.0));
        fleet.set_recording(true);
        let plan = energy_plan();
        let p = match fleet.admit(&plan, Some(1500)) {
            FleetOutcome::Placed(p) => p,
            FleetOutcome::Rejected(m) => panic!("should downclock to fit the cap, got {m:?}"),
        };
        assert_eq!(p.placement.freq_level, 2);
        assert_eq!(p.placement.duration_cycles, 1500);
        assert_eq!(p.placement.nominal_duration_cycles, 1000);
        // L2 energy: 97 000 × 0.8² + 3 000 × 1.5 × 0.8 = 65 680 pJ —
        // a 34% saving over nominal, under a 25% latency-bounded cap.
        let summary = fleet.summary();
        assert_eq!(summary.planned_energy_pj, 65_680);
        assert!(summary.peak_power_mw < 15.0 + 1e-9);
        assert!(fleet
            .drain_events()
            .iter()
            .any(|e| matches!(e, FleetEvent::Route { .. })));
    }

    #[test]
    fn power_cap_rejects_when_no_ladder_point_is_feasible() {
        let mut fleet = FleetScheduler::new(FleetConfig::new(1, 1).with_power_cap(15.0));
        let plan = energy_plan();
        let _ = place(&mut fleet, &plan);
        // A 1200-cycle deadline leaves only L0/L1 fast enough, and
        // both blow the cap: the admission must reject, reporting the
        // best latency irrespective of power (L0's 1000 cycles — the
        // cap, not the clock, blocked it).
        match fleet.admit(&plan, Some(1200)) {
            FleetOutcome::Placed(p) => panic!("should reject under the cap, got {p:?}"),
            FleetOutcome::Rejected(m) => {
                assert_eq!(m.deadline_cycles, 1200);
                assert_eq!(m.best_latency_cycles, 1000);
            }
        }
        assert_eq!(fleet.summary().rejections, 1);
    }

    #[test]
    fn cap_admission_without_deadline_or_pressure_stays_nominal() {
        // Energy-first picking never pays latency for nothing: with
        // the cap slack (50 mW > 25 mW) the lowest-energy point is
        // still the deepest level, so a *deadline equal to the
        // nominal latency* must pin the pick back to L0.
        let mut fleet = FleetScheduler::new(FleetConfig::new(1, 1).with_power_cap(50.0));
        let p = match fleet.admit(&energy_plan(), Some(1000)) {
            FleetOutcome::Placed(p) => p,
            FleetOutcome::Rejected(m) => panic!("{m:?}"),
        };
        assert_eq!(p.placement.freq_level, 0);
        assert_eq!(p.placement.duration_cycles, 1000);
    }

    #[test]
    fn governor_threads_into_every_device_ledger_and_surfaces_events() {
        let policy = tempus_runtime::GovernorPolicy::edge_default();
        let config = FleetConfig::new(1, 1).with_freq_governor(policy);
        let mut fleet = FleetScheduler::new(config);
        fleet.set_recording(true);
        assert!(fleet.devices()[0].ledger.governor().is_some());
        // Sparse open-loop arrivals: the lone array idles ~900 of
        // every 1000 cycles, so the idle EWMA crosses the governor's
        // down-threshold (the ledger test's trace, driven through the
        // fleet).
        for i in 0..10u64 {
            match fleet.admit_at(&BudgetPlan::single(100), None, i * 1000) {
                FleetOutcome::Placed(_) => {}
                FleetOutcome::Rejected(m) => panic!("{m:?}"),
            }
        }
        let combined = fleet.summary().combined();
        assert!(
            combined.freq_changes >= 1,
            "idle-heavy array should downclock"
        );
        assert!(combined.level_residency[1..].iter().sum::<u64>() > 0);
        assert!(fleet
            .drain_events()
            .iter()
            .any(|e| matches!(e, FleetEvent::FreqChange { device: 0, .. })));
    }

    #[test]
    fn golden_multi_device_placements_replay() {
        // Deterministic replay: the same admission sequence yields
        // the same (device, start, granted) triples, run after run.
        let run = || {
            let mut fleet = FleetScheduler::new(FleetConfig::new(3, 2).with_backfill());
            let plans = [
                linear_plan(2, 2, 800),
                BudgetPlan::single(100),
                linear_plan(2, 2, 600),
                BudgetPlan::single(900),
                linear_plan(2, 2, 1000),
                BudgetPlan::single(50),
            ];
            plans
                .iter()
                .map(|p| {
                    let placed = match fleet.admit(p, None) {
                        FleetOutcome::Placed(placed) => placed,
                        FleetOutcome::Rejected(m) => panic!("{m:?}"),
                    };
                    (
                        placed.device,
                        placed.placement.start_cycle,
                        placed.placement.assignment.granted,
                    )
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first, run());
        // Jobs spread across the three devices.
        let devices: std::collections::BTreeSet<usize> = first.iter().map(|&(d, _, _)| d).collect();
        assert_eq!(devices.len(), 3);
    }
}
