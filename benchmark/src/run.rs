//! One run of one workload: repeat the same repetition for the measuring
//! time, check every output, and reduce the repetitions to named metrics.
//!
//! Two ledgers side by side. **Host** metrics (wall-clock, allocations,
//! heap) are the cost of running the simulator and are noisy: they are
//! medians over the repetitions of the run. **Virtual** metrics (`virt_*`)
//! are the behaviour of the modelled TMF and are deterministic: every
//! repetition of a run must reproduce them — and the trace hash — exactly,
//! or the run is reported incorrect.
//!
//! With tracing off the run yields the end-to-end metrics; with tracing on,
//! the per-layer ones (counter deltas, flight-recorder components, and the
//! stepped repetitions that time each event's handler).

use crate::layers::{Layer, LayerTimes};
use crate::reference::{Reference, NOMINAL_LAP_NS};
use crate::stats::{mean, median, percentile, supports_percentile};
use crate::workloads::{repetition, Drive, FlightStats, Kind, Rep, Signature, Workload};
use std::time::{Duration, Instant};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct; empty otherwise.
    pub failures: Vec<String>,
    pub repetitions: usize,
    /// Host timings as read off the clock, before scaling to reference
    /// speed: printed for the reader, not part of the result.
    pub unscaled: Option<String>,
}

/// End-to-end metrics, in report order: `(name, unit)`. Direction and
/// regression bound of each live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_us_per_commit", "us"),
    ("allocs_per_commit", "count"),
    ("peak_heap_mib", "MiB"),
    ("virt_tps", "1/s"),
    ("virt_write_p50_ms", "ms"),
    ("virt_write_p99_ms", "ms"),
];

/// Fewest timed repetitions behind a median, however short the run.
const MIN_REPETITIONS: usize = 3;
/// Share by which two counted repetitions' allocation counts may differ.
pub const ALLOC_TOLERANCE: f64 = 1e-4;

struct Checker {
    workload: &'static str,
    reference: Option<Signature>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Fold one repetition's output checks and its determinism signature
    /// into the run's verdict.
    fn admit(&mut self, what: &str, rep: &Rep, sig: Signature) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        for f in &rep.check_failures {
            if self.failures.len() < 16 {
                self.failures
                    .push(format!("{} ({what}): {f}", self.workload));
            }
        }
        match &self.reference {
            None => self.reference = Some(sig),
            Some(reference) if *reference != sig => self.failures.push(format!(
                "{}: {what} repetition is not deterministic: {sig:?} against {reference:?}",
                self.workload
            )),
            Some(_) => {}
        }
    }
}

pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> RunOutput {
    let mut check = Checker {
        workload: w.name,
        reference: None,
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let (metrics, repetitions, unscaled) = if trace {
        let (metrics, repetitions) = per_layer_run(w, seed, seconds, &mut check);
        (metrics, repetitions, None)
    } else {
        end_to_end_run(w, seed, seconds, &mut check)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            check
                .failures
                .push(format!("{}: {} is not a number", w.name, m.name));
        }
    }
    RunOutput {
        correct: check.failures.is_empty(),
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        failures: check.failures,
        repetitions,
        unscaled,
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn ms(us: f64) -> f64 {
    us / 1_000.0
}

/// Host time of the window at reference speed: per segment, the median
/// over the run's repetitions, summed over the segments. Per segment (the
/// chaos sweep has one per schedule) so that a burst of interference that
/// hits one schedule moves that schedule's median at most, not the whole
/// repetition's time.
fn typical_ns(segments_by_rep: &[Vec<f64>]) -> f64 {
    let segments = segments_by_rep.first().map_or(0, Vec::len);
    (0..segments)
        .map(|i| {
            let across: Vec<f64> = segments_by_rep.iter().map(|rep| rep[i]).collect();
            median(&across)
        })
        .sum()
}

/// Reference laps taken around the repetitions of a run (see
/// [`crate::reference`]): one before the first and one after each.
struct Laps {
    reference: Reference,
    ns: Vec<f64>,
}

impl Laps {
    fn start() -> Laps {
        let mut laps = Laps {
            reference: Reference::new(),
            ns: Vec::new(),
        };
        laps.lap();
        laps
    }

    fn lap(&mut self) -> f64 {
        let ns = self.reference.lap();
        self.ns.push(ns);
        ns
    }

    /// Close the repetition that just ended with a lap; the factor that
    /// brings its host timings to reference speed, from the laps on either
    /// side of it.
    fn scale_of_last_repetition(&mut self) -> f64 {
        let before = *self.ns.last().expect("starts with one lap");
        let after = self.lap();
        NOMINAL_LAP_NS / ((before + after) / 2.0)
    }
}

/// Tracing off: a counted warm-up, timed repetitions for `seconds`, a
/// second counted repetition, and a flight repetition.
fn end_to_end_run(
    w: Workload,
    seed: u64,
    seconds: u64,
    check: &mut Checker,
) -> (Vec<Metric>, usize, Option<String>) {
    // warm-up, discarded for timing; its allocation count is kept
    let (warm, sig) = repetition(w, seed, Drive::Plain, true);
    let commits = sig.commits;
    let virt_window_us = sig.virt_window_us;
    check.admit("warm-up", &warm, sig);

    let mut setup_s = Vec::new();
    let mut segments = Vec::new();
    let mut unscaled_ns = Vec::new();
    let budget = Duration::from_secs(seconds);
    let clock = Instant::now();
    let mut laps = Laps::start();
    while clock.elapsed() < budget || segments.len() < MIN_REPETITIONS {
        let (rep, sig) = repetition(w, seed, Drive::Plain, false);
        let scale = laps.scale_of_last_repetition();
        unscaled_ns.push(rep.window_ns as f64);
        setup_s.push(rep.setup_ns as f64 * scale / 1e9);
        segments.push(
            rep.segments_ns
                .iter()
                .map(|&ns| ns as f64 * scale)
                .collect(),
        );
        check.admit("timed", &rep, sig);
    }

    let (counted, sig) = repetition(w, seed, Drive::Plain, true);
    // Not `!=`: std's HashMap seeds itself randomly, and whether an insert
    // after removals rehashes in place or reallocates depends on where the
    // tombstones fell, so the kernel's timer set moves the count by a few.
    if counted.allocs_window.abs_diff(warm.allocs_window) as f64
        > ALLOC_TOLERANCE * warm.allocs_window as f64
    {
        check.failures.push(format!(
            "{}: allocations differ between two counted repetitions ({}, {})",
            w.name, warm.allocs_window, counted.allocs_window
        ));
    }
    check.admit("counted", &counted, sig);

    let (flown, sig) = repetition(w, seed, Drive::Flight, false);
    check.admit("flight", &flown, sig);
    let writes = flown.flight.map(|f| f.write_total).unwrap_or_default();
    if !supports_percentile(writes.len(), 0.99) {
        check.failures.push(format!(
            "{}: {} read-write commits attributed, p99 needs 1000",
            w.name,
            writes.len()
        ));
    }
    let pct = |p| {
        if writes.is_empty() {
            0.0
        } else {
            ms(percentile(&writes, p) as f64)
        }
    };

    let metrics = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric(
            "host_us_per_commit",
            "us",
            typical_ns(&segments) / 1e3 / commits.max(1) as f64,
        ),
        metric(
            "allocs_per_commit",
            "count",
            ratio(counted.allocs_window, commits),
        ),
        metric(
            "peak_heap_mib",
            "MiB",
            counted.peak_bytes as f64 / (1 << 20) as f64,
        ),
        metric(
            "virt_tps",
            "1/s",
            commits as f64 / (virt_window_us.max(1) as f64 / 1e6),
        ),
        metric("virt_write_p50_ms", "ms", pct(0.5)),
        metric("virt_write_p99_ms", "ms", pct(0.99)),
    ];
    let unscaled = format!(
        "as read off the clock: {:.3} us per commit; reference lap {:.3} ms, {} ms at reference speed",
        median(&unscaled_ns) / 1e3 / commits.max(1) as f64,
        median(&laps.ns) / 1e6,
        NOMINAL_LAP_NS / 1e6
    );
    (metrics, segments.len(), Some(unscaled))
}

/// Tracing on: a warm-up whose counter deltas are the exact per-commit
/// counts, plain and stepped repetitions alternating for `seconds` (their
/// ratio is the stepping overhead), and a flight repetition.
fn per_layer_run(
    w: Workload,
    seed: u64,
    seconds: u64,
    check: &mut Checker,
) -> (Vec<Metric>, usize) {
    let stepped_applies = !matches!(w.kind, Kind::Chaos { .. });
    let (warm, sig) = repetition(w, seed, Drive::Plain, false);
    let commits = sig.commits;
    check.admit("warm-up", &warm, sig);

    let mut plain_ns = Vec::new();
    let mut stepped_ns = Vec::new();
    let mut ns_per_event = Vec::new();
    let mut per_schedule_ns = Vec::new();
    let mut layer_times = LayerTimes::default();
    let budget = Duration::from_secs(seconds);
    let clock = Instant::now();
    let mut laps = Laps::start();
    while clock.elapsed() < budget || plain_ns.len() < MIN_REPETITIONS {
        let (rep, sig) = repetition(w, seed, Drive::Plain, false);
        laps.lap();
        plain_ns.push(rep.window_ns as f64);
        ns_per_event.push(ratio(rep.window_ns, rep.events));
        if !stepped_applies {
            per_schedule_ns.extend(rep.segments_ns.iter().copied());
        }
        check.admit("plain", &rep, sig);
        if stepped_applies {
            let (rep, sig) = repetition(w, seed, Drive::Stepped, false);
            stepped_ns.push(rep.window_ns as f64);
            layer_times.merge(
                rep.layer_times
                    .as_ref()
                    .expect("stepped drive times layers"),
            );
            check.admit("stepped", &rep, sig);
        }
    }
    let (flown, sig) = repetition(w, seed, Drive::Flight, false);
    check.admit("flight", &flown, sig);
    let flown_ns = flown.window_ns as f64;
    let flight = flown.flight.unwrap_or_default();

    // one factor for the whole traced run brings its host times to
    // reference speed; shares and overhead ratios need none
    let lap = median(&laps.ns);
    let speed = NOMINAL_LAP_NS / lap;
    let mut m = counter_metrics(&warm, commits);
    m.push(metric(
        "sim.host_ns_per_event",
        "ns",
        median(&ns_per_event) * speed,
    ));
    per_schedule_ns.sort_unstable();
    let schedule_ms = |p| {
        if per_schedule_ns.is_empty() {
            0.0
        } else {
            percentile(&per_schedule_ns, p) as f64 * speed / 1e6
        }
    };
    m.push(metric("chaos.host_ms_per_seed_p50", "ms", schedule_ms(0.5)));
    m.push(metric("chaos.host_ms_per_seed_max", "ms", schedule_ms(1.0)));
    m.extend(flight_metrics(&flight));
    m.extend(stepped_metrics(&layer_times, speed));
    m.push(metric("trace.reference_lap_ms", "ms", lap / 1e6));
    let plain = median(&plain_ns);
    m.push(metric(
        "trace.stepped_overhead_ratio",
        "ratio",
        if stepped_ns.is_empty() {
            0.0
        } else {
            median(&stepped_ns) / plain
        },
    ));
    m.push(metric(
        "trace.flight_overhead_ratio",
        "ratio",
        flown_ns / plain,
    ));

    if stepped_applies {
        let unattributed = ratio(layer_times.ns(Layer::Unattributed), layer_times.total_ns());
        if unattributed > 0.05 {
            check.failures.push(format!(
                "{}: {:.1}% of in-step host time is unattributed (limit 5%)",
                w.name,
                unattributed * 100.0
            ));
        }
    }
    (m, plain_ns.len())
}

/// Group (a): counter deltas over the window, exact, per commit unless the
/// name says otherwise.
fn counter_metrics(rep: &Rep, commits: u64) -> Vec<Metric> {
    let c = |name: &str| rep.counter(name);
    let per_commit = |name: &str| ratio(c(name), commits);
    let writes = commits - c("tmf.readonly_commits");
    let per_write = |name: &str| ratio(c(name), writes);
    vec![
        metric("sim.events_per_commit", "count", ratio(rep.events, commits)),
        metric(
            "sim.msgs_local_per_commit",
            "count",
            per_commit("sim.msgs.local"),
        ),
        metric(
            "sim.msgs_bus_per_commit",
            "count",
            per_commit("sim.msgs.bus"),
        ),
        metric(
            "sim.msgs_net_per_commit",
            "count",
            per_commit("sim.msgs.net"),
        ),
        metric(
            "sim.msgs_lost",
            "count",
            (c("sim.msgs.lost") + c("sim.msgs.lost_in_flight") + c("sim.msgs.to_dead")) as f64,
        ),
        metric(
            "guardian.checkpoints_per_commit",
            "count",
            per_commit("pair.checkpoints"),
        ),
        metric("guardian.takeovers", "count", c("pair.takeovers") as f64),
        metric(
            "guardian.backups_respawned",
            "count",
            c("pair.backup_respawned") as f64,
        ),
        metric(
            "storage.disc_ops_per_commit",
            "count",
            per_commit("disc.ops"),
        ),
        metric(
            "storage.lock_waits_per_commit",
            "count",
            per_commit("disc.lock_waits"),
        ),
        metric(
            "storage.lock_timeouts",
            "count",
            c("disc.lock_timeouts") as f64,
        ),
        metric(
            "storage.cache_hit_ratio",
            "ratio",
            ratio(
                c("disc.cache_hits"),
                c("disc.cache_hits") + c("disc.cache_misses"),
            ),
        ),
        metric(
            "storage.flush_writes_per_commit",
            "count",
            per_commit("disc.flush_writes"),
        ),
        metric(
            "storage.snapshot_reads_per_commit",
            "count",
            per_commit("disc.snapshot_reads"),
        ),
        metric(
            "storage.snapshot_too_old",
            "count",
            c("disc.snapshot_too_old") as f64,
        ),
        metric(
            "audit.forces_per_write_commit",
            "count",
            per_write("audit.forces"),
        ),
        metric(
            "audit.records_per_force",
            "count",
            ratio(c("audit.forced_records"), c("audit.forces")),
        ),
        metric(
            "audit.records_per_write_commit",
            "count",
            per_write("audit.records"),
        ),
        metric("audit.backout_images", "count", c("backout.images") as f64),
        metric(
            "tmf.monitor_forces_per_write_commit",
            "count",
            per_write("tmf.monitor_forces"),
        ),
        metric(
            "tmf.state_broadcasts_per_commit",
            "count",
            per_commit("tmf.state_broadcasts"),
        ),
        metric(
            "tmf.phase1_net_per_commit",
            "count",
            per_commit("tmf.msgs.phase1_net"),
        ),
        metric(
            "tmf.phase2_net_per_commit",
            "count",
            per_commit("tmf.msgs.phase2_net"),
        ),
        metric(
            "tmf.remote_begins_per_commit",
            "count",
            per_commit("tmf.msgs.remote_begin"),
        ),
        metric(
            "tmf.abort_share",
            "ratio",
            ratio(c("tmf.aborts"), commits + c("tmf.aborts")),
        ),
        metric(
            "tmf.takeover_commit_completions",
            "count",
            c("tmf.takeover_commit_completions") as f64,
        ),
        metric(
            "encompass.tcp_sends_per_commit",
            "count",
            per_commit("tcp.sends"),
        ),
        metric(
            "encompass.server_requests_per_commit",
            "count",
            per_commit("server.requests_served"),
        ),
        metric(
            "encompass.restarts_per_commit",
            "count",
            per_commit("tcp.restarts"),
        ),
        metric(
            "encompass.restart_limit_hit",
            "count",
            c("tcp.restart_limit_hit") as f64,
        ),
        metric(
            "shard.suspense_applied_per_commit",
            "count",
            per_commit("suspense.applied"),
        ),
        metric(
            "shard.suspense_retries",
            "count",
            c("suspense.retries") as f64,
        ),
        metric("shard.drain_virt_ms", "ms", ms(rep.drain_us as f64)),
        metric("chaos.aborts_per_commit", "count", per_commit("tmf.aborts")),
        metric("chaos.violations", "count", rep.failed as f64),
    ]
}

/// Group (b): the components `attribute_commit` partitions BEGIN → commit
/// into, virtual ms per committed read-write transaction, plus the
/// read-only class and the END → commit sub-window.
fn flight_metrics(f: &FlightStats) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut pair = |name: &str, samples: &[u64]| {
        let p99 = if samples.is_empty() {
            0.0
        } else {
            percentile(samples, 0.99) as f64
        };
        out.push(metric(format!("{name}_mean"), "ms", ms(mean(samples))));
        out.push(metric(format!("{name}_p99"), "ms", ms(p99)));
    };
    pair("storage.virt_lock_wait_ms", &f.lock_wait);
    pair("audit.virt_force_ms", &f.force);
    pair("guardian.virt_checkpoint_ms", &f.checkpoint);
    pair("sim.virt_bus_ms", &f.bus);
    pair("tmf.virt_end_to_commit_ms", &f.end_to_commit);
    let read = |p| {
        if f.read_total.is_empty() {
            0.0
        } else {
            ms(percentile(&f.read_total, p) as f64)
        }
    };
    out.push(metric("encompass.virt_read_p50_ms", "ms", read(0.5)));
    out.push(metric("encompass.virt_read_p99_ms", "ms", read(0.99)));
    // one gap per world; over the chaos sweep's many worlds, the typical one
    let outage = if f.commit_gaps.is_empty() {
        0
    } else {
        percentile(&f.commit_gaps, 0.5)
    };
    out.push(metric("encompass.virt_outage_ms", "ms", ms(outage as f64)));
    out
}

/// Group (c): host time inside `step()` by the layer whose handler ran.
fn stepped_metrics(t: &LayerTimes, speed: f64) -> Vec<Metric> {
    let total = t.total_ns();
    let mut out = Vec::new();
    for layer in Layer::ALL {
        if layer == Layer::Unattributed {
            continue;
        }
        let name = layer.name();
        out.push(metric(
            format!("{name}.host_share"),
            "ratio",
            ratio(t.ns(layer), total),
        ));
        out.push(metric(
            format!("{name}.host_ns_per_event"),
            "ns",
            ratio(t.ns(layer), t.events(layer)) * speed,
        ));
        out.push(metric(
            format!("{name}.events_per_commit"),
            "count",
            ratio(t.events(layer), t.commits),
        ));
    }
    out.push(metric(
        "sim.timer_host_share",
        "ratio",
        ratio(t.timer_ns, total),
    ));
    out.push(metric(
        "trace.unattributed_share",
        "ratio",
        ratio(t.ns(Layer::Unattributed), total),
    ));
    out
}

/// Names and units of every per-layer metric, in report order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut m = counter_metrics(&Rep::default(), 0);
    m.push(metric("sim.host_ns_per_event", "ns", 0.0));
    m.push(metric("chaos.host_ms_per_seed_p50", "ms", 0.0));
    m.push(metric("chaos.host_ms_per_seed_max", "ms", 0.0));
    m.extend(flight_metrics(&FlightStats::default()));
    m.extend(stepped_metrics(&LayerTimes::default(), 1.0));
    m.push(metric("trace.reference_lap_ms", "ms", 0.0));
    m.push(metric("trace.stepped_overhead_ratio", "ratio", 0.0));
    m.push(metric("trace.flight_overhead_ratio", "ratio", 0.0));
    m.into_iter().map(|m| (m.name, m.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn contract() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(v: &Value, section: &str) -> Vec<(String, String)> {
        v.get(section)
            .and_then(Value::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn typical_time_takes_each_segment_at_its_median() {
        // three repetitions of two segments; a burst hits a different
        // segment in each of the last two
        let reps = vec![vec![100.0, 200.0], vec![100.0, 900.0], vec![700.0, 200.0]];
        assert_eq!(typical_ns(&reps), 300.0);
        // one segment: the median of the repetitions themselves
        let whole: Vec<Vec<f64>> = (1..=10).map(|v| vec![f64::from(v)]).collect();
        assert_eq!(typical_ns(&whole), 5.5);
        assert_eq!(typical_ns(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer_names());
        for (name, unit) in all {
            assert!(name.len() <= 64, "{name} too long");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside letters, digits, _ . -"
            );
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        assert!(per_layer_names().len() <= 128);
    }

    #[test]
    fn contract_file_declares_what_the_program_prints() {
        let v = contract();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&v, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&v, "per_layer"), layers);
        let names: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }
}
