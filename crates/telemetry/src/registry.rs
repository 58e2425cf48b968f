//! The global-free metric [`Registry`].
//!
//! A registry is a cheaply clonable handle (`Arc` inside) that hands out
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles by name, get-or-create
//! style. Registration takes a short write lock; the returned handles are
//! lock-free, so hot paths register once and increment forever.

use std::collections::BTreeMap;

use parking_lot::RwLock;
use std::sync::Arc;

use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::Snapshot;

/// Whether `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
pub fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Whether `value` can be stored in a registry key without escaping.
/// The registry stores labeled series under their rendered
/// `family{k="v",...}` key, so values that would need escaping (quotes,
/// backslashes, newlines) or would confuse the label parser (commas,
/// braces) are rejected at registration time.
pub fn is_valid_label_value(value: &str) -> bool {
    value
        .chars()
        .all(|c| !matches!(c, '"' | '\\' | ',' | '{' | '}') && !c.is_control())
}

/// Renders the registry key for `family` with the given label pairs:
/// `family{k1="v1",k2="v2"}` (or just `family` for an empty label set).
/// Labels are rendered in the order given, so call sites must use a
/// consistent order for the same series.
///
/// # Panics
/// Panics on an invalid family name, label name, or label value.
pub fn labeled_key(family: &str, labels: &[(&str, &str)]) -> String {
    assert!(
        is_valid_metric_name(family),
        "invalid metric name {family:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
    if labels.is_empty() {
        return family.to_string();
    }
    let mut key = String::with_capacity(family.len() + 16 * labels.len());
    key.push_str(family);
    key.push('{');
    for (i, (name, value)) in labels.iter().enumerate() {
        assert!(
            is_valid_label_name(name),
            "invalid label name {name:?} on {family:?}: must match [a-zA-Z_][a-zA-Z0-9_]*"
        );
        assert!(
            is_valid_label_value(value),
            "invalid label value {value:?} for {name:?} on {family:?}: \
             quotes, backslashes, commas, braces, and control characters are not allowed"
        );
        if i > 0 {
            key.push(',');
        }
        key.push_str(name);
        key.push_str("=\"");
        key.push_str(value);
        key.push('"');
    }
    key.push('}');
    key
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A live handle to one registered metric, any kind. Returned by
/// [`Registry::metric_handles`] so samplers (the flight recorder) can
/// read every metric without knowing names up front.
#[derive(Clone)]
pub enum MetricHandle {
    /// A counter handle.
    Counter(Counter),
    /// A gauge handle.
    Gauge(Gauge),
    /// A histogram handle.
    Histogram(Histogram),
}

#[derive(Default)]
struct RegistryInner {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

/// A named collection of metrics. Clones share the same storage.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.inner.metrics.read();
        f.debug_struct("Registry")
            .field("metrics", &metrics.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        assert!(
            is_valid_metric_name(name),
            "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        self.get_or_insert_key(name.to_string(), make)
    }

    /// `key` must already be validated (a bare name or [`labeled_key`]).
    fn get_or_insert_key(&self, key: String, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.metrics.write();
        metrics.entry(key).or_insert_with(make).clone()
    }

    /// Returns the counter registered under `name`, creating it at zero on
    /// first use.
    ///
    /// # Panics
    /// Panics if `name` is not a valid metric name or is already registered
    /// as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics on invalid names or kind mismatch, like [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns the histogram registered under `name` with the default
    /// latency buckets, creating it on first use.
    ///
    /// # Panics
    /// Panics on invalid names or kind mismatch, like [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, &crate::metric::DEFAULT_SECONDS_BUCKETS)
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bucket bounds on first use. An already-registered histogram
    /// keeps its original bounds.
    ///
    /// # Panics
    /// Panics on invalid names or kind mismatch, like [`Registry::counter`].
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[f64]) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::with_bounds(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns the counter for `family` with the given label pairs,
    /// creating it at zero on first use. The series is stored under its
    /// rendered `family{k="v",...}` key, so the same `(family, labels)`
    /// in the same order always returns the same cell.
    ///
    /// # Panics
    /// Panics on an invalid family/label name, an unescapable label
    /// value (see [`is_valid_label_value`]), or kind mismatch.
    pub fn counter_labeled(&self, family: &str, labels: &[(&str, &str)]) -> Counter {
        let key = labeled_key(family, labels);
        match self.get_or_insert_key(key.clone(), || Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c,
            other => panic!("metric {key:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns the gauge for `family` with the given label pairs,
    /// creating it on first use. See [`Registry::counter_labeled`].
    ///
    /// # Panics
    /// Panics on invalid names/values or kind mismatch.
    pub fn gauge_labeled(&self, family: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = labeled_key(family, labels);
        match self.get_or_insert_key(key.clone(), || Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {key:?} already registered as a {}", other.kind()),
        }
    }

    /// Returns the histogram for `family` with the given label pairs and
    /// the default latency buckets, creating it on first use. See
    /// [`Registry::counter_labeled`].
    ///
    /// # Panics
    /// Panics on invalid names/values or kind mismatch.
    pub fn histogram_labeled(&self, family: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_labeled_with_bounds(family, labels, &crate::metric::DEFAULT_SECONDS_BUCKETS)
    }

    /// [`Registry::histogram_labeled`] with explicit bucket bounds. An
    /// already-registered series keeps its original bounds.
    ///
    /// # Panics
    /// Panics on invalid names/values or kind mismatch.
    pub fn histogram_labeled_with_bounds(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let key = labeled_key(family, labels);
        match self.get_or_insert_key(key.clone(), || {
            Metric::Histogram(Histogram::with_bounds(bounds))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {key:?} already registered as a {}", other.kind()),
        }
    }

    /// Names of every registered metric, sorted. Labeled series appear
    /// under their full `family{k="v",...}` key.
    pub fn metric_names(&self) -> Vec<String> {
        self.inner.metrics.read().keys().cloned().collect()
    }

    /// Number of registered metrics. Cheap; the flight recorder uses it
    /// to detect registrations since its last schema build.
    pub fn metric_count(&self) -> usize {
        self.inner.metrics.read().len()
    }

    /// Live handles to every registered metric, sorted by key. Reading
    /// through the handles afterwards takes no registry lock.
    pub fn metric_handles(&self) -> Vec<(String, MetricHandle)> {
        self.inner
            .metrics
            .read()
            .iter()
            .map(|(name, metric)| {
                let handle = match metric {
                    Metric::Counter(c) => MetricHandle::Counter(c.clone()),
                    Metric::Gauge(g) => MetricHandle::Gauge(g.clone()),
                    Metric::Histogram(h) => MetricHandle::Histogram(h.clone()),
                };
                (name.clone(), handle)
            })
            .collect()
    }

    /// Captures a point-in-time [`Snapshot`] of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.inner.metrics.read();
        let mut snap = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_cell() {
        let r = Registry::new();
        let a = r.counter("snapshot_rebuilds_total");
        let b = r.counter("snapshot_rebuilds_total");
        a.add(3);
        b.inc();
        assert_eq!(r.counter("snapshot_rebuilds_total").get(), 4);
        assert!(a.same_cell(&b));
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let r = Registry::new();
        r.counter("c_total").add(2);
        r.gauge("g").set(1.5);
        r.histogram_with_bounds("h_seconds", &[1.0]).observe(0.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c_total"), 2);
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.histogram("h_seconds").unwrap().count, 1);
        assert_eq!(
            r.metric_names(),
            vec![
                "c_total".to_string(),
                "g".to_string(),
                "h_seconds".to_string()
            ]
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("9starts-with-digit");
    }

    #[test]
    fn name_validation() {
        assert!(is_valid_metric_name("detect_seconds"));
        assert!(is_valid_metric_name("ns:snapshot_rebuilds_total"));
        assert!(is_valid_metric_name("_private"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("1abc"));
        assert!(!is_valid_metric_name("has space"));
        assert!(!is_valid_metric_name("has-dash"));
    }

    #[test]
    fn label_validation() {
        assert!(is_valid_label_name("endpoint"));
        assert!(is_valid_label_name("_hidden"));
        assert!(!is_valid_label_name("2xx"));
        assert!(!is_valid_label_name("le-bound"));
        assert!(is_valid_label_value("scores"));
        assert!(is_valid_label_value("/score/42"));
        assert!(is_valid_label_value(""));
        assert!(!is_valid_label_value("has\"quote"));
        assert!(!is_valid_label_value("a,b"));
        assert!(!is_valid_label_value("brace{"));
        assert!(!is_valid_label_value("back\\slash"));
    }

    #[test]
    fn labeled_series_are_distinct_cells() {
        let r = Registry::new();
        let plain = r.counter("http_requests_total");
        let a = r.counter_labeled("http_requests_total", &[("endpoint", "scores")]);
        let b = r.counter_labeled("http_requests_total", &[("endpoint", "healthz")]);
        let a2 = r.counter_labeled("http_requests_total", &[("endpoint", "scores")]);
        assert!(a.same_cell(&a2));
        assert!(!a.same_cell(&b));
        assert!(!a.same_cell(&plain));
        a.add(2);
        b.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("http_requests_total{endpoint=\"scores\"}"), 2);
        assert_eq!(snap.counter("http_requests_total{endpoint=\"healthz\"}"), 1);
        assert_eq!(snap.counter("http_requests_total"), 0);
        // Empty label set collapses to the bare name.
        assert!(r
            .counter_labeled("http_requests_total", &[])
            .same_cell(&plain));
    }

    #[test]
    fn labeled_key_renders_in_given_order() {
        assert_eq!(
            labeled_key("m_total", &[("b", "2"), ("a", "1")]),
            "m_total{b=\"2\",a=\"1\"}"
        );
        assert_eq!(labeled_key("m_total", &[]), "m_total");
    }

    #[test]
    #[should_panic(expected = "invalid label value")]
    fn labeled_key_rejects_comma_value() {
        labeled_key("m_total", &[("a", "x,y")]);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn labeled_key_rejects_bad_label_name() {
        labeled_key("m_total", &[("2xx", "x")]);
    }

    #[test]
    fn handles_enumerate_every_metric() {
        let r = Registry::new();
        r.counter("c_total").add(5);
        r.gauge("g").set(2.5);
        r.histogram_labeled_with_bounds("h_seconds", &[("op", "tick")], &[1.0])
            .observe(0.5);
        assert_eq!(r.metric_count(), 3);
        let handles = r.metric_handles();
        assert_eq!(handles.len(), 3);
        let mut names: Vec<&str> = handles.iter().map(|(n, _)| n.as_str()).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(names, sorted);
        names.retain(|n| *n == "h_seconds{op=\"tick\"}");
        assert_eq!(names.len(), 1);
        for (name, handle) in handles {
            match handle {
                MetricHandle::Counter(c) => {
                    assert_eq!(name, "c_total");
                    assert_eq!(c.get(), 5);
                }
                MetricHandle::Gauge(g) => {
                    assert_eq!(name, "g");
                    assert_eq!(g.get(), 2.5);
                }
                MetricHandle::Histogram(h) => {
                    assert_eq!(name, "h_seconds{op=\"tick\"}");
                    assert_eq!(h.count(), 1);
                }
            }
        }
    }
}
