//! The closed-loop measured phase: one thread per client, each sending
//! its next unit only after the previous one completed, until the
//! deadline.

use std::time::Duration;

use crate::stats::percentile;
use crate::trace::{now_ns, Tracer};
use crate::workloads::peak_rss_mb;

/// A traced run alternates untraced and traced slices of the measured
/// phase, so `trace.overhead_ratio` compares the two under the same
/// store state, cache state and machine load.
const SLICES: u64 = 20;

/// One closed-loop caller of the system under test.
pub trait Client: Send {
    /// Generate the next unit's inputs. Not timed.
    fn prepare(&mut self);
    /// Run the prepared unit: the part a caller waits for, and the
    /// only part that is timed. `Err` counts the unit as failed.
    fn unit(&mut self, t: &mut Tracer) -> Result<(), String>;
    /// Verify what the unit returned. Not timed; `Err` counts the unit
    /// as failed.
    fn check(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// One completed unit, in 8 bytes: a serving workload logs a quarter
/// of a million of them, and the log must not be what `peak_rss_mb`
/// measures.
#[derive(Debug, Clone, Copy)]
pub struct UnitRec {
    /// Start in µs since the measured phase began; the top bit says
    /// whether the unit ran in a traced slice.
    start_us: u32,
    /// Latency in ns, saturating at 4.29 s.
    dur_ns: u32,
}

const TRACED_BIT: u32 = 1 << 31;

impl UnitRec {
    fn new(start_ns: u64, dur_ns: u64, traced: bool) -> UnitRec {
        let start_us = (start_ns / 1000).min(u64::from(TRACED_BIT - 1)) as u32;
        UnitRec {
            start_us: start_us | if traced { TRACED_BIT } else { 0 },
            dur_ns: dur_ns.min(u64::from(u32::MAX)) as u32,
        }
    }

    fn start_ns(&self) -> u64 {
        u64::from(self.start_us & !TRACED_BIT) * 1000
    }

    fn dur_ns(&self) -> u64 {
        u64::from(self.dur_ns)
    }

    fn traced(&self) -> bool {
        self.start_us & TRACED_BIT != 0
    }
}

/// What the measured phase produced.
pub struct RunLog {
    pub units: Vec<UnitRec>,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
    pub tracers: Vec<Tracer>,
    /// Whether traced slices alternated with untraced ones.
    pub traced_run: bool,
    /// `VmHWM` in MB when the clients had completed the unit count the
    /// workload fixed for it (at the end, for a client that did not get
    /// that far): a time-bound run completes another number of units
    /// every time, and memory grows with them.
    pub peak_rss_mb: f64,
}

impl RunLog {
    /// Every unit's latency in ns, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        self.latencies(None)
    }

    /// Latencies in ns, ascending, of the units of one kind (traced
    /// slices or untraced), or of all.
    fn latencies(&self, traced: Option<bool>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .units
            .iter()
            .filter(|u| traced.is_none_or(|t| u.traced() == t))
            .map(UnitRec::dur_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Units completed per second of measured wall time, counting the
    /// slices of one kind (in an untraced run, every unit). The slices
    /// of a kind cover half of a traced run.
    pub fn ops_per_s(&self, traced: bool) -> f64 {
        let count = self.units.iter().filter(|u| u.traced() == traced).count();
        let end_ns = self.units.iter().map(|u| u.start_ns() + u.dur_ns()).max();
        let share = if self.traced_run { 0.5 } else { 1.0 };
        match end_ns {
            Some(end_ns) if count > 0 => count as f64 * 1e9 / (end_ns as f64 * share),
            _ => 0.0,
        }
    }

    /// Median unit latency in ns of the untraced slices; `None` when no
    /// unit completed.
    pub fn p50_ns(&self) -> Option<u64> {
        let untraced = self.latencies(Some(false));
        (!untraced.is_empty()).then(|| percentile(&untraced, 0.5))
    }
}

/// Drive `clients` for `seconds`, one thread each. Each reads the
/// process's peak memory when it has completed `rss_units` units.
pub fn measure<C: Client>(
    clients: Vec<C>,
    seconds: f64,
    traced_run: bool,
    rss_units: usize,
) -> (RunLog, Vec<C>) {
    let phase_ns = Duration::from_secs_f64(seconds).as_nanos() as u64;
    let slice_ns = (phase_ns / SLICES).max(1);
    let start = now_ns();
    let deadline = start + phase_ns;

    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced_run);
                    let mut units = Vec::with_capacity(1 << 16);
                    let mut failed = 0u64;
                    let mut errors = Vec::new();
                    let mut rss_mb = None;
                    loop {
                        if units.len() == rss_units {
                            rss_mb = Some(peak_rss_mb());
                        }
                        client.prepare();
                        let t0 = now_ns();
                        if t0 >= deadline {
                            break;
                        }
                        let traced = traced_run && ((t0 - start) / slice_ns) % 2 == 1;
                        tracer.set_on(traced);
                        tracer.begin_unit();
                        let outcome = client.unit(&mut tracer);
                        tracer.close();
                        let t1 = now_ns();
                        units.push(UnitRec::new(t0 - start, t1 - t0, traced));
                        if let Err(e) = outcome.and_then(|()| client.check()) {
                            failed += 1;
                            if errors.len() < 3 {
                                errors.push(e);
                            }
                        }
                    }
                    let rss_mb = rss_mb.unwrap_or_else(peak_rss_mb);
                    (client, units, failed, errors, tracer, rss_mb)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    let mut log = RunLog {
        units: Vec::new(),
        failed: 0,
        errors: Vec::new(),
        tracers: Vec::new(),
        traced_run,
        peak_rss_mb: 0.0,
    };
    let mut clients = Vec::new();
    for (client, units, failed, errors, tracer, rss_mb) in results {
        log.peak_rss_mb = log.peak_rss_mb.max(rss_mb);
        clients.push(client);
        log.units.extend(units);
        log.failed += failed;
        log.errors.extend(errors);
        log.tracers.push(tracer);
    }
    (log, clients)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(units: Vec<UnitRec>, traced_run: bool) -> RunLog {
        RunLog {
            units,
            failed: 0,
            errors: Vec::new(),
            tracers: Vec::new(),
            traced_run,
            peak_rss_mb: 0.0,
        }
    }

    #[test]
    fn rates_and_medians_keep_traced_and_untraced_slices_apart() {
        // Ten seconds of back-to-back 1 ms units.
        let plain = log(
            (0..10_000)
                .map(|i| UnitRec::new(i * 1_000_000, 1_000_000, false))
                .collect(),
            false,
        );
        assert!((plain.ops_per_s(false) - 1000.0).abs() < 1e-6);
        assert_eq!(plain.ops_per_s(true), 0.0);
        assert_eq!(plain.p50_ns(), Some(1_000_000));

        // Alternating 1 s slices; units in traced slices take 2 ms.
        let mut units = Vec::new();
        for slice in 0..10u64 {
            let traced = slice % 2 == 1;
            let dur = if traced { 2_000_000 } else { 1_000_000 };
            let mut at = slice * 1_000_000_000;
            while at < (slice + 1) * 1_000_000_000 {
                units.push(UnitRec::new(at, dur, traced));
                at += dur;
            }
        }
        let mixed = log(units, true);
        assert!((mixed.ops_per_s(false) - 1000.0).abs() < 1e-6);
        assert!((mixed.ops_per_s(true) - 500.0).abs() < 1e-6);
        assert_eq!(mixed.p50_ns(), Some(1_000_000));
        assert_eq!(mixed.sorted_latencies().len(), 7500);
    }
}
