//! Prometheus text exposition (version 0.0.4) of a [`MetricsSnapshot`].
//!
//! Every *declared* family ([`crate::FAMILIES`]) always renders its `# HELP`
//! and `# TYPE` lines, even with zero observations, so dashboards never see
//! a family appear out of nowhere after its first event (series flapping).
//! Ad-hoc families (series recorded under names not in the declaration
//! table, e.g. from tests) still render with a `# TYPE` header derived from
//! the registry map they live in.

use std::collections::BTreeMap;

use crate::{
    FamilyDesc, HistogramSnapshot, Key, MetricKind, MetricsSnapshot, BUCKET_BOUNDS_US, FAMILIES,
};

fn label_suffix(key: &Key, extra: Option<(&str, String)>) -> String {
    let mut parts = Vec::new();
    if !key.label.is_empty() {
        parts.push(format!("collection=\"{}\"", key.label));
    }
    if let Some(seg) = key.segment {
        parts.push(format!("segment=\"{seg}\""));
    }
    if let Some(component) = key.component {
        parts.push(format!("component=\"{component}\""));
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn render_histogram(out: &mut String, key: &Key, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, &c) in h.bucket_counts.iter().enumerate() {
        cumulative += c;
        let le = if i < BUCKET_BOUNDS_US.len() {
            // Bounds are microseconds; Prometheus convention is seconds.
            format!("{}", BUCKET_BOUNDS_US[i] as f64 / 1e6)
        } else {
            "+Inf".to_string()
        };
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            key.name,
            label_suffix(key, Some(("le", le))),
            cumulative
        ));
    }
    out.push_str(&format!(
        "{}_sum{} {}\n",
        key.name,
        label_suffix(key, None),
        h.sum_us as f64 / 1e6
    ));
    out.push_str(&format!("{}_count{} {}\n", key.name, label_suffix(key, None), h.count));
}

fn declared(name: &str) -> Option<&'static FamilyDesc> {
    FAMILIES.iter().find(|f| f.name == name)
}

fn push_header(out: &mut String, name: &str, fallback_kind: MetricKind) {
    match declared(name) {
        Some(f) => {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
        }
        None => out.push_str(&format!("# TYPE {name} {}\n", fallback_kind.as_str())),
    }
}

/// Group a series map by family name, preserving key order within a family.
fn by_family<V>(map: &BTreeMap<Key, V>) -> BTreeMap<&str, Vec<(&Key, &V)>> {
    let mut grouped: BTreeMap<&str, Vec<(&Key, &V)>> = BTreeMap::new();
    for (key, value) in map {
        grouped.entry(key.name.as_str()).or_default().push((key, value));
    }
    grouped
}

/// Render the snapshot in Prometheus text format: one HELP/TYPE header per
/// family (declared families always present), series ordered by name, then
/// label, then segment.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    let counters = by_family(&snap.counters);
    let gauges = by_family(&snap.gauges);
    let histograms = by_family(&snap.histograms);

    // Union of declared and observed family names, per kind, sorted.
    let mut counter_names: Vec<&str> = counters.keys().copied().collect();
    let mut gauge_names: Vec<&str> = gauges.keys().copied().collect();
    let mut histogram_names: Vec<&str> = histograms.keys().copied().collect();
    for f in FAMILIES {
        match f.kind {
            MetricKind::Counter => counter_names.push(f.name),
            MetricKind::Gauge => gauge_names.push(f.name),
            MetricKind::Histogram => histogram_names.push(f.name),
        }
    }
    for names in [&mut counter_names, &mut gauge_names, &mut histogram_names] {
        names.sort_unstable();
        names.dedup();
    }

    for name in counter_names {
        push_header(&mut out, name, MetricKind::Counter);
        for (key, value) in counters.get(name).map(Vec::as_slice).unwrap_or_default() {
            out.push_str(&format!("{}{} {}\n", key.name, label_suffix(key, None), value));
        }
    }

    for name in gauge_names {
        push_header(&mut out, name, MetricKind::Gauge);
        for (key, value) in gauges.get(name).map(Vec::as_slice).unwrap_or_default() {
            out.push_str(&format!("{}{} {}\n", key.name, label_suffix(key, None), value));
        }
    }

    for name in histogram_names {
        push_header(&mut out, name, MetricKind::Histogram);
        for (key, h) in histograms.get(name).map(Vec::as_slice).unwrap_or_default() {
            render_histogram(&mut out, key, h);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn prometheus_output_contains_families_and_buckets() {
        let r = Registry::new();
        r.counter("milvus_ingest_rows_total", "col_a").add(12);
        r.counter("milvus_ingest_rows_total", "col_b").add(3);
        r.gauge("milvus_segments", "col_a").set(4);
        r.histogram("milvus_query_latency_seconds", "col_a").observe_us(100);
        let text = r.render_prometheus();

        assert!(text.contains("# TYPE milvus_ingest_rows_total counter"));
        assert!(text.contains("milvus_ingest_rows_total{collection=\"col_a\"} 12"));
        assert!(text.contains("milvus_ingest_rows_total{collection=\"col_b\"} 3"));
        assert!(text.contains("# TYPE milvus_segments gauge"));
        assert!(text.contains("milvus_segments{collection=\"col_a\"} 4"));
        assert!(text.contains("# TYPE milvus_query_latency_seconds histogram"));
        assert!(text.contains("milvus_query_latency_seconds_bucket{collection=\"col_a\",le=\"+Inf\"} 1"));
        assert!(text.contains("milvus_query_latency_seconds_count{collection=\"col_a\"} 1"));
        // Buckets are cumulative: the 256µs bucket already includes the
        // 100µs observation.
        assert!(text.contains("le=\"0.000256\"} 1"), "{text}");
    }

    #[test]
    fn unlabeled_series_render_without_braces() {
        let r = Registry::new();
        r.counter("milvus_wal_appends_total", "").add(2);
        let text = r.render_prometheus();
        assert!(text.contains("milvus_wal_appends_total 2\n"), "{text}");
    }

    #[test]
    fn zero_observation_families_still_render_help_and_type() {
        // A completely untouched registry still declares every family.
        let text = Registry::new().render_prometheus();
        for f in crate::FAMILIES {
            assert!(
                text.contains(&format!("# HELP {} ", f.name)),
                "missing HELP for {}",
                f.name
            );
            assert!(
                text.contains(&format!("# TYPE {} {}", f.name, f.kind.as_str())),
                "missing TYPE for {}",
                f.name
            );
        }
        // No series lines: every non-empty line is a comment.
        assert!(text.lines().all(|l| l.is_empty() || l.starts_with('#')), "{text}");
    }

    #[test]
    fn split_gauges_carry_a_component_label() {
        let r = Registry::new();
        r.gauge_component(crate::STORED_BYTES, "col", "index").set(77);
        let text = r.render_prometheus();
        assert!(text.contains("milvus_stored_bytes{collection=\"col\",component=\"index\"} 77"));
        assert_eq!(r.snapshot().gauge_component(crate::STORED_BYTES, "col", "index"), 77);
    }

    #[test]
    fn segment_granular_series_carry_a_segment_label() {
        let r = Registry::new();
        r.counter_seg(crate::POOL_HITS, "reader-1", 42).add(9);
        r.gauge_seg(crate::POOL_RESIDENT_BYTES, "reader-1", 42).set(1024);
        let text = r.render_prometheus();
        assert!(
            text.contains("milvus_bufferpool_hits_total{collection=\"reader-1\",segment=\"42\"} 9"),
            "{text}"
        );
        assert!(
            text.contains(
                "milvus_bufferpool_resident_bytes{collection=\"reader-1\",segment=\"42\"} 1024"
            ),
            "{text}"
        );
    }

    #[test]
    fn headers_appear_once_per_family() {
        let r = Registry::new();
        r.counter("milvus_query_total", "a").inc();
        r.counter("milvus_query_total", "b").inc();
        let text = r.render_prometheus();
        let headers =
            text.lines().filter(|l| *l == "# TYPE milvus_query_total counter").count();
        assert_eq!(headers, 1, "{text}");
    }
}
