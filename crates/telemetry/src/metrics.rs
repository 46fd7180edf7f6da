//! Process-wide operational metrics: monotonic counters, gauges and
//! log₁₀-bucket histograms for the *serving* plane (daemon, campaign
//! executor) — as opposed to the per-run journal, which
//! records one tuning run's deterministic history.
//!
//! Design rules, in force everywhere a metric is touched:
//!
//! - **Lock-cheap.** Instrumented code holds a pre-registered handle
//!   ([`CounterHandle`], [`GaugeHandle`], [`HistHandle`]); updates are a
//!   single atomic op (histograms take an uncontended per-histogram
//!   mutex). Registration itself takes the registry lock once, at
//!   wiring time, never on a hot path.
//! - **Observability-only.** No tuning decision, journal record or
//!   outcome may read a metric. The metrics plane observes the engine;
//!   it never feeds back. (The metrics-on/off differential oracle in
//!   `cst-testkit` pins this.)
//! - **Deterministic snapshots modulo wall.** A snapshot serializes
//!   deterministic sections first (names sorted, canonical JSON via
//!   [`crate::json::write_f64`]) and every wall-clock-derived section
//!   last under `wall_*` keys, so [`crate::strip_wall_fields`] reduces a
//!   metrics line to a byte-deterministic core exactly like a journal
//!   line. Anything fed by host time or wire byte counts (latency
//!   histograms, transfer totals, uptime) must be registered through the
//!   `wall_*` constructors.

use crate::json::write_f64;
use crate::HistSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version stamped into every metrics snapshot as `metrics_version`.
/// Bump when a section or required field changes incompatibly.
pub const METRICS_VERSION: u64 = 2;

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge (signed, so decrement-below-transient-zero
/// races stay representable instead of wrapping).
#[derive(Clone)]
pub struct GaugeHandle(Arc<AtomicI64>);

impl GaugeHandle {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₁₀-bucket histogram sharing [`HistSnapshot`]'s shape with the
/// journal's `hist_*` digests.
#[derive(Clone)]
pub struct HistHandle(Arc<Mutex<HistSnapshot>>);

impl HistHandle {
    /// Record one observation (non-finite values are ignored).
    pub fn observe(&self, v: f64) {
        self.0.lock().expect("metrics hist lock").observe(v);
    }

    /// Snapshot the current digest.
    pub fn get(&self) -> HistSnapshot {
        *self.0.lock().expect("metrics hist lock")
    }
}

#[derive(Default)]
struct Slots {
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    gauges: BTreeMap<&'static str, Arc<AtomicI64>>,
    hists: BTreeMap<&'static str, Arc<Mutex<HistSnapshot>>>,
    wall_counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    wall_hists: BTreeMap<&'static str, Arc<Mutex<HistSnapshot>>>,
}

/// A named-metric registry. The daemon owns one per server instance;
/// [`global`] serves in-process consumers (the campaign executor).
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<Slots>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_name(name: &'static str) {
        assert!(
            !name.starts_with("wall"),
            "deterministic metric `{name}` must not start with `wall` — \
             register it via the wall_* constructor instead"
        );
    }

    /// Register (or fetch) a deterministic monotonic counter.
    pub fn counter(&self, name: &'static str) -> CounterHandle {
        Self::check_name(name);
        let mut slots = self.slots.lock().expect("metrics lock");
        CounterHandle(Arc::clone(slots.counters.entry(name).or_default()))
    }

    /// Register (or fetch) a wall-class counter (wire bytes, retry
    /// totals fed by host time — anything not byte-deterministic).
    pub fn wall_counter(&self, name: &'static str) -> CounterHandle {
        let mut slots = self.slots.lock().expect("metrics lock");
        CounterHandle(Arc::clone(slots.wall_counters.entry(name).or_default()))
    }

    /// Register (or fetch) a deterministic gauge.
    pub fn gauge(&self, name: &'static str) -> GaugeHandle {
        Self::check_name(name);
        let mut slots = self.slots.lock().expect("metrics lock");
        GaugeHandle(Arc::clone(slots.gauges.entry(name).or_default()))
    }

    /// Register (or fetch) a deterministic histogram.
    pub fn hist(&self, name: &'static str) -> HistHandle {
        Self::check_name(name);
        let mut slots = self.slots.lock().expect("metrics lock");
        HistHandle(Arc::clone(
            slots
                .hists
                .entry(name)
                .or_insert_with(|| Arc::new(Mutex::new(HistSnapshot::default()))),
        ))
    }

    /// Register (or fetch) a wall-class histogram (request latencies and
    /// other host-time digests).
    pub fn wall_hist(&self, name: &'static str) -> HistHandle {
        let mut slots = self.slots.lock().expect("metrics lock");
        HistHandle(Arc::clone(
            slots
                .wall_hists
                .entry(name)
                .or_insert_with(|| Arc::new(Mutex::new(HistSnapshot::default()))),
        ))
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().expect("metrics lock");
        MetricsSnapshot {
            counters: slots
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: slots
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
                .collect(),
            hists: slots
                .hists
                .iter()
                .map(|(k, v)| (k.to_string(), *v.lock().expect("metrics hist lock")))
                .collect(),
            wall_counters: slots
                .wall_counters
                .iter()
                .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
                .collect(),
            wall_hists: slots
                .wall_hists
                .iter()
                .map(|(k, v)| (k.to_string(), *v.lock().expect("metrics hist lock")))
                .collect(),
        }
    }
}

/// The process-wide registry for components without a daemon to hang
/// metrics off (the campaign executor). The serve daemon deliberately
/// uses its own instance so concurrent servers in one process (tests,
/// future coordinator/worker splits) stay independent.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A sorted point-in-time copy of a registry, split into deterministic
/// and wall-class sections.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Deterministic monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Deterministic gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Deterministic histograms, sorted by name.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Wall-class counters, sorted by name.
    pub wall_counters: Vec<(String, u64)>,
    /// Wall-class histograms, sorted by name.
    pub wall_hists: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Append the deterministic sections:
    /// `"metrics_version":N,"counters":{…},"gauges":{…},"hists":{…}`.
    pub fn write_deterministic(&self, out: &mut String) {
        let _ = write!(out, "\"metrics_version\":{METRICS_VERSION}");
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            write_hist_object(out, h);
        }
        out.push('}');
    }

    /// Append the wall-class sections. Every key starts with `wall`, so
    /// the whole tail is removed by [`crate::strip_wall_fields`]; call
    /// this after every deterministic field of the record.
    pub fn write_wall(&self, out: &mut String) {
        out.push_str(",\"wall_counters\":{");
        for (i, (name, v)) in self.wall_counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"wall_hists\":{");
        for (i, (name, h)) in self.wall_hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            write_hist_object(out, h);
        }
        out.push('}');
    }
}

/// Append one histogram digest in the journal's canonical shape:
/// `{"count":N,"sum":S,"min":m,"max":M,"buckets":[…]}`. Shared with the
/// journal's `counters` record so `hist_percentiles` reads both.
pub fn write_hist_object(out: &mut String, s: &HistSnapshot) {
    let _ = write!(out, "{{\"count\":{},\"sum\":", s.count);
    write_f64(out, s.sum);
    out.push_str(",\"min\":");
    write_f64(out, s.min);
    out.push_str(",\"max\":");
    write_f64(out, s.max);
    out.push_str(",\"buckets\":[");
    for (i, b) in s.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn handles_share_cells_and_snapshots_sort() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("beta");
        reg.counter("alpha").add(2);
        c.inc();
        assert_eq!(reg.counter("beta").get(), 1, "re-registration shares the cell");
        let g = reg.gauge("depth");
        g.set(3);
        g.add(-1);
        reg.hist("lat").observe(5.0);
        reg.wall_counter("wall_bytes").add(10);
        reg.wall_hist("wall_req_ms").observe(0.25);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("alpha".to_string(), 2), ("beta".to_string(), 1)],
            "sorted by name"
        );
        assert_eq!(snap.gauges, vec![("depth".to_string(), 2)]);
        assert_eq!(snap.hists[0].1.count, 1);
        assert_eq!(snap.wall_counters, vec![("wall_bytes".to_string(), 10)]);
        assert_eq!(snap.wall_hists[0].1.count, 1);
    }

    #[test]
    #[should_panic(expected = "must not start with `wall`")]
    fn deterministic_names_reject_wall_prefix() {
        MetricsRegistry::new().counter("wall_bytes");
    }

    #[test]
    fn snapshot_serializes_canonically_and_strips() {
        let reg = MetricsRegistry::new();
        reg.counter("done").add(4);
        reg.gauge("queue").set(1);
        reg.hist("evals").observe(2.0);
        reg.wall_counter("wall_out").add(9);
        reg.wall_hist("wall_req_tune_ms").observe(1.5);
        let snap = reg.snapshot();
        let mut line = String::from("{\"type\":\"metrics\",");
        snap.write_deterministic(&mut line);
        snap.write_wall(&mut line);
        line.push('}');
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("metrics_version").and_then(|x| x.as_u64()), Some(METRICS_VERSION));
        assert_eq!(v.get("counters").and_then(|c| c.get("done")).and_then(|x| x.as_u64()), Some(4));
        let h = v.get("hists").and_then(|h| h.get("evals")).expect("hist object");
        assert_eq!(h.get("count").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(h.get("buckets").and_then(|b| b.as_arr()).map(|b| b.len()), Some(16));
        let stripped = crate::strip_wall_fields(&line);
        assert!(!stripped.contains("wall"), "{stripped}");
        json::parse(&stripped).expect("stripped snapshot stays valid JSON");
        // Identical registries render identical deterministic cores.
        let reg2 = MetricsRegistry::new();
        reg2.counter("done").add(4);
        reg2.gauge("queue").set(1);
        reg2.hist("evals").observe(2.0);
        let mut line2 = String::from("{\"type\":\"metrics\",");
        reg2.snapshot().write_deterministic(&mut line2);
        line2.push('}');
        assert_eq!(stripped, line2);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("metrics_test_probe");
        let before = c.get();
        global().counter("metrics_test_probe").inc();
        assert_eq!(c.get(), before + 1);
    }
}
