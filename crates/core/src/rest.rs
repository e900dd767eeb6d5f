//! RESTful API (§2.1: "Milvus also supports RESTful APIs for web
//! applications").
//!
//! A deliberately dependency-free HTTP/1.1 server over [`crate::Milvus`]:
//! `std::net::TcpListener`, one thread per connection, JSON bodies via
//! `serde_json`. The route table mirrors the SDK surface:
//!
//! | Method & path | Body | Action |
//! |---|---|---|
//! | `GET /collections` | — | list collection names |
//! | `POST /collections` | `{name, dim, metric, attributes?}` | create collection |
//! | `DELETE /collections/{name}` | — | drop collection |
//! | `GET /collections/{name}/stats` | — | collection statistics |
//! | `POST /collections/{name}/entities` | `{ids, vectors, attributes?}` | insert |
//! | `POST /collections/{name}/entities/delete` | `{ids}` | delete |
//! | `POST /collections/{name}/flush` | — | flush barrier (§5.1) |
//! | `POST /collections/{name}/search` | `{vector, k, nprobe?, ef?, filter?}` | vector / filtered query (429 when the admission controller sheds) |
//! | `POST /collections/{name}/search_batch` | `{vectors, k, nprobe?, ef?}` | explicit batch query (`Collection::search_batch`): one admission, one pipeline run over the whole set |
//! | `POST /collections/{name}/explain` | `{vector, k, nprobe?, ef?}` | search under a forced trace; returns an `EXPLAIN ANALYZE` report |
//! | `POST /collections/{name}/index` | `{field?, index_type}` | build index |
//! | `GET /metrics` | — | Prometheus text exposition of all metric series |
//! | `GET /debug/slow_queries` | — | recent slow queries with per-segment spans |
//! | `GET /debug/timeseries` | — | flight-recorder windows: per-series deltas, rates, windowed p50/p95/p99 |
//! | `POST /debug/timeseries/tick` | — | record a flight-recorder frame now |
//! | `GET /debug/profile` | — | per-collection per-stage time breakdown from sampled traces |
//! | `GET /health` | — | component health (ok/degraded/unhealthy); 503 when unhealthy |

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use milvus_index::traits::SearchParams;
use milvus_index::{Metric, VectorSet};
use milvus_storage::{InsertBatch, Schema};
use serde::Deserialize;
use serde_json::{json, Value};

use crate::config::CollectionConfig;
use crate::Milvus;

/// A running REST server; dropping the handle does not stop accepted
/// connections but the listener thread exits once `shutdown` is called.
pub struct RestServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RestServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `milvus`.
    pub fn serve(milvus: Arc<Milvus>, addr: &str) -> std::io::Result<RestServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        listener.set_nonblocking(true)?;
        let handle = std::thread::Builder::new().name("milvus-rest".into()).spawn(move || {
            while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let m = Arc::clone(&milvus);
                        std::thread::spawn(move || {
                            let _ = handle_connection(stream, &m);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })?;
        Ok(RestServer { addr: local, shutdown, handle: Some(handle) })
    }

    /// The bound address (for clients when port 0 was requested).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the listener thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RestServer {
    fn drop(&mut self) {
        self.shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn handle_connection(stream: TcpStream, milvus: &Milvus) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();

    // Headers: we only need Content-Length.
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body)?;
    }

    // Prometheus scrape endpoint: text exposition format, not JSON.
    if method == "GET" && path.trim_end_matches('/') == "/metrics" {
        let text = milvus_obs::registry().render_prometheus();
        let mut out = stream;
        write!(
            out,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
            text.len()
        )?;
        return out.flush();
    }

    let (status, payload) = route(milvus, &method, &path, &body);
    let body = serde_json::to_string(&payload).unwrap_or_else(|_| "{}".into());
    let mut out = stream;
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    out.flush()
}

fn err(status: &'static str, msg: impl std::fmt::Display) -> (&'static str, Value) {
    (status, json!({ "error": msg.to_string() }))
}

/// Map a search-path failure to its HTTP status: a query shed by the
/// admission controller is `429 Too Many Requests` (retry with backoff);
/// everything else on the search path is a client error.
fn search_err(e: crate::MilvusError) -> (&'static str, Value) {
    match &e {
        crate::MilvusError::Overloaded { .. } => err("429 Too Many Requests", e),
        _ => err("400 Bad Request", e),
    }
}

fn span_to_json(s: &milvus_obs::Span) -> Value {
    let mut obj = serde::Map::new();
    obj.insert("kind".into(), s.kind.as_str().into());
    obj.insert("start_us".into(), s.start_us.into());
    obj.insert("dur_us".into(), s.dur_us.into());
    if s.segment_id >= 0 {
        obj.insert("segment_id".into(), s.segment_id.into());
    }
    if s.shard >= 0 {
        obj.insert("shard".into(), s.shard.into());
    }
    if s.rows_scanned > 0 {
        obj.insert("rows_scanned".into(), s.rows_scanned.into());
    }
    if let Some(outcome) = s.cache.as_str() {
        obj.insert("cache".into(), outcome.into());
    }
    Value::Object(obj)
}

fn trace_to_json(t: &milvus_obs::FinishedTrace) -> Value {
    json!({
        "collection": t.collection.clone(),
        "op": t.op,
        "seq": t.seq,
        "total_us": t.total_us,
        "threshold_us": t.threshold_us,
        "dropped_spans": t.dropped_spans,
        "spans": t.spans.iter().map(span_to_json).collect::<Vec<_>>(),
    })
}

fn series_key_json(obj: &mut serde::Map, key: &milvus_obs::Key) {
    obj.insert("name".into(), key.name.clone().into());
    obj.insert("collection".into(), key.label.clone().into());
    if let Some(seg) = key.segment {
        obj.insert("segment".into(), seg.into());
    }
}

/// `GET /debug/timeseries` body: the recorded window boundaries plus, for
/// every live series, its last value and its delta/rate (counters) or
/// windowed count + p50/p95/p99 (histograms) over the most recent window.
fn timeseries_to_json(r: &milvus_obs::TimeSeriesReport) -> Value {
    let newest = r.frames.last();
    let previous = r.frames.len().checked_sub(2).and_then(|i| r.frames.get(i));
    let window_us = r.window_us(1);

    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    if let Some(newest) = newest {
        for (key, &value) in &newest.snapshot.counters {
            let delta = value
                .saturating_sub(previous.map_or(0, |p| p.snapshot.counters.get(key).copied().unwrap_or(0)));
            let mut obj = serde::Map::new();
            series_key_json(&mut obj, key);
            obj.insert("value".into(), value.into());
            obj.insert("window_delta".into(), delta.into());
            let rate = if window_us == 0 { 0.0 } else { delta as f64 / (window_us as f64 / 1e6) };
            obj.insert("rate_per_sec".into(), rate.into());
            counters.push(Value::Object(obj));
        }
        for (key, &value) in &newest.snapshot.gauges {
            let mut obj = serde::Map::new();
            series_key_json(&mut obj, key);
            obj.insert("value".into(), value.into());
            gauges.push(Value::Object(obj));
        }
        for (key, hist) in &newest.snapshot.histograms {
            let windowed = match previous.and_then(|p| p.snapshot.histograms.get(key)) {
                Some(earlier) => hist.saturating_diff(earlier),
                None => hist.clone(),
            };
            let mut obj = serde::Map::new();
            series_key_json(&mut obj, key);
            obj.insert("count".into(), hist.count.into());
            obj.insert("window_count".into(), windowed.count.into());
            obj.insert("window_p50_us".into(), windowed.p50_us().into());
            obj.insert("window_p95_us".into(), windowed.p95_us().into());
            obj.insert("window_p99_us".into(), windowed.p99_us().into());
            obj.insert("window_mean_us".into(), windowed.mean_us().into());
            histograms.push(Value::Object(obj));
        }
    }
    json!({
        "windows": r.windows(),
        "capacity": r.capacity,
        "from_us": r.frames.first().map_or(0, |f| f.at_us),
        "to_us": newest.map_or(0, |f| f.at_us),
        "window_us": window_us,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    })
}

fn profile_to_json(r: &milvus_obs::ProfileReport) -> Value {
    json!({
        "ops": r.ops.iter().map(|op| json!({
            "collection": op.collection.clone(),
            "op": op.op,
            "queries": op.queries,
            "total_latency_us": op.total_latency_us,
            "mean_latency_us": op.mean_latency_us(),
            "dropped_spans": op.dropped_spans,
            "stages_total_us": op.stages_total_us(),
            "stages": op.stages.iter().map(|s| json!({
                "stage": s.kind.as_str(),
                "spans": s.spans,
                "total_us": s.total_us,
                "mean_us": s.mean_us(),
            })).collect::<Vec<_>>(),
        })).collect::<Vec<_>>(),
    })
}

fn health_to_json(r: &milvus_obs::HealthReport) -> Value {
    json!({
        "status": r.status.as_str(),
        "components": r.components.iter().map(|c| json!({
            "component": c.component,
            "status": c.status.as_str(),
            "reason": c.reason.clone(),
        })).collect::<Vec<_>>(),
    })
}

struct CreateCollectionReq {
    name: String,
    dim: usize,
    metric: String,
    attributes: Vec<String>,
}

impl Deserialize for CreateCollectionReq {
    fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(CreateCollectionReq {
            name: req_field(v, "name")?,
            dim: req_field(v, "dim")?,
            metric: opt_field(v, "metric")?.unwrap_or_else(|| "L2".into()),
            attributes: opt_field(v, "attributes")?.unwrap_or_default(),
        })
    }
}

struct InsertReq {
    ids: Vec<i64>,
    /// Row-major vectors: one inner array per entity.
    vectors: Vec<Vec<f32>>,
    attributes: Vec<Vec<f64>>,
}

impl Deserialize for InsertReq {
    fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(InsertReq {
            ids: req_field(v, "ids")?,
            vectors: req_field(v, "vectors")?,
            attributes: opt_field(v, "attributes")?.unwrap_or_default(),
        })
    }
}

struct DeleteReq {
    ids: Vec<i64>,
}

impl Deserialize for DeleteReq {
    fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(DeleteReq { ids: req_field(v, "ids")? })
    }
}

struct SearchReq {
    vector: Vec<f32>,
    k: usize,
    nprobe: Option<usize>,
    ef: Option<usize>,
    /// Optional attribute range filter.
    filter: Option<FilterReq>,
}

impl Deserialize for SearchReq {
    fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(SearchReq {
            vector: req_field(v, "vector")?,
            k: opt_field(v, "k")?.unwrap_or(10),
            nprobe: opt_field(v, "nprobe")?,
            ef: opt_field(v, "ef")?,
            filter: opt_field(v, "filter")?,
        })
    }
}

struct SearchBatchReq {
    /// Row-major query vectors: one inner array per query.
    vectors: Vec<Vec<f32>>,
    k: usize,
    nprobe: Option<usize>,
    ef: Option<usize>,
}

impl Deserialize for SearchBatchReq {
    fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(SearchBatchReq {
            vectors: req_field(v, "vectors")?,
            k: opt_field(v, "k")?.unwrap_or(10),
            nprobe: opt_field(v, "nprobe")?,
            ef: opt_field(v, "ef")?,
        })
    }
}

struct FilterReq {
    attribute: String,
    min: f64,
    max: f64,
}

impl Deserialize for FilterReq {
    fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(FilterReq {
            attribute: req_field(v, "attribute")?,
            min: req_field(v, "min")?,
            max: req_field(v, "max")?,
        })
    }
}

struct IndexReq {
    field: Option<String>,
    index_type: String,
}

impl Deserialize for IndexReq {
    fn from_value(v: &Value) -> Result<Self, serde_json::Error> {
        Ok(IndexReq { field: opt_field(v, "field")?, index_type: req_field(v, "index_type")? })
    }
}

/// Required body field; missing or mistyped fields are a 400.
fn req_field<T: Deserialize>(v: &Value, key: &str) -> Result<T, serde_json::Error> {
    match v.get(key) {
        Some(field) if !field.is_null() => T::from_value(field),
        _ => Err(serde_json::Error::msg(format!("missing field `{key}`"))),
    }
}

/// Optional body field; absent or null become `None`.
fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, serde_json::Error> {
    match v.get(key) {
        Some(field) if !field.is_null() => T::from_value(field).map(Some),
        _ => Ok(None),
    }
}

/// Dispatch one request.
fn route(milvus: &Milvus, method: &str, path: &str, body: &[u8]) -> (&'static str, Value) {
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, segments.as_slice()) {
        ("GET", ["collections"]) => ("200 OK", json!({ "collections": milvus.list_collections() })),

        ("GET", ["debug", "slow_queries"]) => {
            let traces = milvus_obs::slow_query_log().snapshot();
            (
                "200 OK",
                json!({
                    "count": traces.len(),
                    "slow_queries": traces.iter().map(|t| trace_to_json(t)).collect::<Vec<_>>(),
                }),
            )
        }

        ("GET", ["debug", "timeseries"]) => {
            // Serves whatever frames exist; recording is explicit (the tick
            // endpoint, `Milvus::tick_timeseries`, or a periodic driver) so
            // scrapes never perturb window boundaries.
            ("200 OK", timeseries_to_json(&milvus.timeseries()))
        }

        ("POST", ["debug", "timeseries", "tick"]) => {
            let at_us = milvus.tick_timeseries();
            ("200 OK", json!({ "ticked_at_us": at_us }))
        }

        ("GET", ["debug", "profile"]) => ("200 OK", profile_to_json(&milvus.profile())),

        ("GET", ["health"]) => {
            let report = milvus.health();
            let status = if report.status == milvus_obs::HealthStatus::Unhealthy {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status, health_to_json(&report))
        }

        ("POST", ["collections"]) => {
            let req: CreateCollectionReq = match serde_json::from_slice(body) {
                Ok(r) => r,
                Err(e) => return err("400 Bad Request", e),
            };
            let Some(metric) = Metric::parse(&req.metric) else {
                return err("400 Bad Request", format!("unknown metric {}", req.metric));
            };
            let mut schema = Schema::single("vector", req.dim, metric);
            for a in req.attributes {
                schema = schema.with_attribute(a);
            }
            match milvus.create_collection(&req.name, schema, CollectionConfig::default()) {
                Ok(_) => ("201 Created", json!({ "created": req.name })),
                Err(e) => err("409 Conflict", e),
            }
        }

        ("DELETE", ["collections", name]) => {
            if milvus.drop_collection(name) {
                ("200 OK", json!({ "dropped": name }))
            } else {
                err("404 Not Found", format!("no such collection {name}"))
            }
        }

        ("GET", ["collections", name, "stats"]) => match milvus.collection(name) {
            Ok(col) => {
                let s = col.stats();
                (
                    "200 OK",
                    json!({
                        "segments": s.segments,
                        "live_rows": s.live_rows,
                        "pending_rows": s.pending_rows,
                        "indexed_segments": s.indexed_segments,
                        "memory_bytes": s.memory_bytes,
                        "segment_bytes": s.segment_bytes,
                        "index_bytes": s.index_bytes,
                        "tombstone_bytes": s.tombstone_bytes,
                    }),
                )
            }
            Err(e) => err("404 Not Found", e),
        },

        ("POST", ["collections", name, "entities"]) => {
            let col = match milvus.collection(name) {
                Ok(c) => c,
                Err(e) => return err("404 Not Found", e),
            };
            let req: InsertReq = match serde_json::from_slice(body) {
                Ok(r) => r,
                Err(e) => return err("400 Bad Request", e),
            };
            let dim = col.schema().vector_fields[0].dim;
            let mut vs = VectorSet::new(dim);
            for v in &req.vectors {
                if v.len() != dim {
                    return err("400 Bad Request", format!("vector dim {} != {dim}", v.len()));
                }
                vs.push(v);
            }
            let count = req.ids.len();
            let batch = InsertBatch { ids: req.ids, vectors: vec![vs], attributes: req.attributes };
            match col.insert(batch) {
                Ok(()) => ("202 Accepted", json!({ "inserted": count })),
                Err(e) => err("400 Bad Request", e),
            }
        }

        ("POST", ["collections", name, "entities", "delete"]) => {
            let col = match milvus.collection(name) {
                Ok(c) => c,
                Err(e) => return err("404 Not Found", e),
            };
            let req: DeleteReq = match serde_json::from_slice(body) {
                Ok(r) => r,
                Err(e) => return err("400 Bad Request", e),
            };
            let count = req.ids.len();
            match col.delete(req.ids) {
                Ok(()) => ("202 Accepted", json!({ "deleted": count })),
                Err(e) => err("400 Bad Request", e),
            }
        }

        ("POST", ["collections", name, "flush"]) => match milvus.collection(name) {
            Ok(col) => match col.flush() {
                Ok(()) => ("200 OK", json!({ "flushed": true })),
                Err(e) => err("500 Internal Server Error", e),
            },
            Err(e) => err("404 Not Found", e),
        },

        ("POST", ["collections", name, "search"]) => {
            let col = match milvus.collection(name) {
                Ok(c) => c,
                Err(e) => return err("404 Not Found", e),
            };
            let req: SearchReq = match serde_json::from_slice(body) {
                Ok(r) => r,
                Err(e) => return err("400 Bad Request", e),
            };
            let mut sp = SearchParams::top_k(req.k);
            if let Some(np) = req.nprobe {
                sp.nprobe = np;
            }
            if let Some(ef) = req.ef {
                sp.ef = ef;
            }
            let field = col.schema().vector_fields[0].name.clone();
            let result = match &req.filter {
                Some(f) => {
                    col.filtered_search(&field, &req.vector, &f.attribute, f.min, f.max, &sp)
                }
                None => col.search(&field, &req.vector, &sp),
            };
            match result {
                Ok(hits) => (
                    "200 OK",
                    json!({
                        "hits": hits
                            .iter()
                            .map(|h| json!({ "id": h.id, "score": h.score }))
                            .collect::<Vec<_>>()
                    }),
                ),
                Err(e) => search_err(e),
            }
        }

        ("POST", ["collections", name, "search_batch"]) => {
            let col = match milvus.collection(name) {
                Ok(c) => c,
                Err(e) => return err("404 Not Found", e),
            };
            let req: SearchBatchReq = match serde_json::from_slice(body) {
                Ok(r) => r,
                Err(e) => return err("400 Bad Request", e),
            };
            let mut sp = SearchParams::top_k(req.k);
            if let Some(np) = req.nprobe {
                sp.nprobe = np;
            }
            if let Some(ef) = req.ef {
                sp.ef = ef;
            }
            let field = col.schema().vector_fields[0].name.clone();
            let dim = col.schema().vector_fields[0].dim;
            let mut qs = VectorSet::new(dim);
            for v in &req.vectors {
                if v.len() != dim {
                    return err("400 Bad Request", format!("vector dim {} != {dim}", v.len()));
                }
                qs.push(v);
            }
            match col.search_batch(&field, &qs, &sp) {
                Ok(lists) => (
                    "200 OK",
                    json!({
                        "results": lists
                            .iter()
                            .map(|hits| json!({
                                "hits": hits
                                    .iter()
                                    .map(|h| json!({ "id": h.id, "score": h.score }))
                                    .collect::<Vec<_>>()
                            }))
                            .collect::<Vec<_>>()
                    }),
                ),
                Err(e) => search_err(e),
            }
        }

        ("POST", ["collections", name, "explain"]) => {
            let col = match milvus.collection(name) {
                Ok(c) => c,
                Err(e) => return err("404 Not Found", e),
            };
            let req: SearchReq = match serde_json::from_slice(body) {
                Ok(r) => r,
                Err(e) => return err("400 Bad Request", e),
            };
            let mut sp = SearchParams::top_k(req.k);
            if let Some(np) = req.nprobe {
                sp.nprobe = np;
            }
            if let Some(ef) = req.ef {
                sp.ef = ef;
            }
            let field = col.schema().vector_fields[0].name.clone();
            match col.explain_analyze(&field, &req.vector, &sp) {
                Ok(report) => ("200 OK", json!({ "report": report })),
                Err(e) => err("400 Bad Request", e),
            }
        }

        ("POST", ["collections", name, "index"]) => {
            let col = match milvus.collection(name) {
                Ok(c) => c,
                Err(e) => return err("404 Not Found", e),
            };
            let req: IndexReq = match serde_json::from_slice(body) {
                Ok(r) => r,
                Err(e) => return err("400 Bad Request", e),
            };
            let field =
                req.field.unwrap_or_else(|| col.schema().vector_fields[0].name.clone());
            match col.build_index(&field, &req.index_type) {
                Ok(built) => ("200 OK", json!({ "indexed_segments": built })),
                Err(e) => err("400 Bad Request", e),
            }
        }

        _ => err("404 Not Found", format!("{method} {path}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny blocking HTTP client for the tests.
    fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (String, Value) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_to_string(&mut response).unwrap();
        let status = response.lines().next().unwrap_or("").to_string();
        let json_body = response.split("\r\n\r\n").nth(1).unwrap_or("{}");
        (status, serde_json::from_str(json_body).unwrap_or(Value::Null))
    }

    fn server() -> (RestServer, std::net::SocketAddr) {
        let milvus = Arc::new(Milvus::new());
        let server = RestServer::serve(milvus, "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        (server, addr)
    }

    #[test]
    fn full_rest_lifecycle() {
        let (_server, addr) = server();

        // Create a collection with an attribute.
        let (status, _) = http(
            addr,
            "POST",
            "/collections",
            r#"{"name":"shop","dim":2,"metric":"L2","attributes":["price"]}"#,
        );
        assert!(status.contains("201"), "{status}");

        // Duplicate creation conflicts.
        let (status, _) =
            http(addr, "POST", "/collections", r#"{"name":"shop","dim":2}"#);
        assert!(status.contains("409"), "{status}");

        // List.
        let (_, body) = http(addr, "GET", "/collections", "");
        assert_eq!(body["collections"][0], "shop");

        // Insert + flush.
        let (status, body) = http(
            addr,
            "POST",
            "/collections/shop/entities",
            r#"{"ids":[1,2,3],"vectors":[[0.0,0.0],[1.0,0.0],[5.0,0.0]],"attributes":[[10.0,20.0,30.0]]}"#,
        );
        assert!(status.contains("202"), "{status}: {body}");
        let (status, _) = http(addr, "POST", "/collections/shop/flush", "");
        assert!(status.contains("200"), "{status}");

        // Stats.
        let (_, body) = http(addr, "GET", "/collections/shop/stats", "");
        assert_eq!(body["live_rows"], 3);
        assert_eq!(body["memory_bytes"], body["segment_bytes"]);
        assert_eq!((&body["index_bytes"], &body["tombstone_bytes"]), (&json!(0), &json!(0)));

        // Search.
        let (_, body) = http(
            addr,
            "POST",
            "/collections/shop/search",
            r#"{"vector":[0.9,0.0],"k":1}"#,
        );
        assert_eq!(body["hits"][0]["id"], 2);

        // Filtered search: price <= 10 → id 1.
        let (_, body) = http(
            addr,
            "POST",
            "/collections/shop/search",
            r#"{"vector":[0.9,0.0],"k":1,"filter":{"attribute":"price","min":0.0,"max":10.0}}"#,
        );
        assert_eq!(body["hits"][0]["id"], 1);

        // Delete + flush + search excludes.
        let (status, _) = http(
            addr,
            "POST",
            "/collections/shop/entities/delete",
            r#"{"ids":[2]}"#,
        );
        assert!(status.contains("202"), "{status}");
        http(addr, "POST", "/collections/shop/flush", "");
        let (_, body) = http(
            addr,
            "POST",
            "/collections/shop/search",
            r#"{"vector":[0.9,0.0],"k":1}"#,
        );
        assert_ne!(body["hits"][0]["id"], 2);

        // Build index.
        let (status, body) = http(
            addr,
            "POST",
            "/collections/shop/index",
            r#"{"index_type":"IVF_FLAT"}"#,
        );
        assert!(status.contains("200"), "{status}: {body}");

        // Drop.
        let (status, _) = http(addr, "DELETE", "/collections/shop", "");
        assert!(status.contains("200"), "{status}");
        let (status, _) = http(addr, "GET", "/collections/shop/stats", "");
        assert!(status.contains("404"), "{status}");
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (_server, addr) = server();
        http(
            addr,
            "POST",
            "/collections",
            r#"{"name":"obs_rest","dim":2,"metric":"L2"}"#,
        );
        http(
            addr,
            "POST",
            "/collections/obs_rest/entities",
            r#"{"ids":[1],"vectors":[[0.5,0.5]]}"#,
        );
        http(addr, "POST", "/collections/obs_rest/flush", "");
        http(addr, "POST", "/collections/obs_rest/search", r#"{"vector":[0.5,0.5],"k":1}"#);

        // Raw scrape: the body is Prometheus text, not JSON.
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("Content-Type: text/plain"), "{response}");
        let text = response.split("\r\n\r\n").nth(1).unwrap_or("");
        assert!(text.contains("# TYPE milvus_query_latency_seconds histogram"), "{text}");
        assert!(
            text.contains(r#"milvus_query_total{collection="obs_rest"}"#),
            "{text}"
        );
        assert!(
            text.contains(r#"milvus_ingest_rows_total{collection="obs_rest"} 1"#),
            "{text}"
        );
    }

    #[test]
    fn observability_endpoints_serve_well_formed_json() {
        let (_server, addr) = server();
        http(addr, "POST", "/collections", r#"{"name":"obs_ep","dim":2,"metric":"L2"}"#);
        http(
            addr,
            "POST",
            "/collections/obs_ep/entities",
            r#"{"ids":[1,2],"vectors":[[0.0,0.0],[1.0,1.0]]}"#,
        );
        http(addr, "POST", "/collections/obs_ep/flush", "");

        // Two frames bracketing a search define one window.
        let (status, body) = http(addr, "POST", "/debug/timeseries/tick", "");
        assert!(status.contains("200"), "{status}");
        assert!(body["ticked_at_us"].as_u64().is_some(), "{body}");
        http(addr, "POST", "/collections/obs_ep/search", r#"{"vector":[0.4,0.4],"k":1}"#);
        http(addr, "POST", "/debug/timeseries/tick", "");

        let (status, body) = http(addr, "GET", "/debug/timeseries", "");
        assert!(status.contains("200"), "{status}");
        assert!(body["windows"].as_u64().unwrap_or(0) >= 2, "{body}");
        let counters = body["counters"].as_array().expect("counters array");
        let qt = counters
            .iter()
            .find(|c| c["name"] == "milvus_query_total" && c["collection"] == "obs_ep")
            .unwrap_or_else(|| panic!("query_total series missing: {body}"));
        assert_eq!(qt["window_delta"], 1, "{qt}");
        let hists = body["histograms"].as_array().expect("histograms array");
        assert!(
            hists.iter().any(|h| h["name"] == "milvus_query_latency_seconds"
                && h["collection"] == "obs_ep"
                && h["window_count"] == 1),
            "{body}"
        );

        // Profile: the sampled search must appear with a segment_scan stage.
        let (status, body) = http(addr, "GET", "/debug/profile", "");
        assert!(status.contains("200"), "{status}");
        let ops = body["ops"].as_array().expect("ops array");
        let op = ops
            .iter()
            .find(|o| o["collection"] == "obs_ep" && o["op"] == "search")
            .unwrap_or_else(|| panic!("profile entry missing: {body}"));
        assert!(op["queries"].as_u64().unwrap_or(0) >= 1, "{op}");
        let stages = op["stages"].as_array().expect("stages array");
        assert!(stages.iter().any(|s| s["stage"] == "segment_scan"), "{op}");

        // Health: a healthy single-node process reports ok with all five
        // components present.
        let (status, body) = http(addr, "GET", "/health", "");
        assert!(status.contains("200"), "{status}: {body}");
        assert_eq!(body["status"], "ok", "{body}");
        let components = body["components"].as_array().expect("components array");
        let names: Vec<&str> =
            components.iter().filter_map(|c| c["component"].as_str()).collect();
        assert_eq!(
            names,
            vec!["executor", "transport", "bufferpool", "search", "writer"],
            "{body}"
        );

        // EXPLAIN ANALYZE over REST.
        let (status, body) = http(
            addr,
            "POST",
            "/collections/obs_ep/explain",
            r#"{"vector":[0.4,0.4],"k":1}"#,
        );
        assert!(status.contains("200"), "{status}: {body}");
        let report = body["report"].as_str().expect("report text");
        assert!(report.starts_with("EXPLAIN ANALYZE op=search"), "{report}");
        assert!(report.contains("segment_scan"), "{report}");
    }

    #[test]
    fn search_batch_endpoint() {
        let (_server, addr) = server();
        http(addr, "POST", "/collections", r#"{"name":"sb","dim":2}"#);
        http(
            addr,
            "POST",
            "/collections/sb/entities",
            r#"{"ids":[1,2,3,4],"vectors":[[0.0,0.0],[1.0,0.0],[2.0,0.0],[3.0,0.0]]}"#,
        );
        http(addr, "POST", "/collections/sb/flush", "");
        let (status, body) = http(
            addr,
            "POST",
            "/collections/sb/search_batch",
            r#"{"vectors":[[0.1,0.0],[2.9,0.0]],"k":2}"#,
        );
        assert!(status.contains("200"), "{status}: {body}");
        assert_eq!(body["results"][0]["hits"][0]["id"], 1, "{body}");
        assert_eq!(body["results"][1]["hits"][0]["id"], 4, "{body}");
        // One mismatched query vector fails the whole batch up front.
        let (status, _) = http(
            addr,
            "POST",
            "/collections/sb/search_batch",
            r#"{"vectors":[[0.1]],"k":1}"#,
        );
        assert!(status.contains("400"), "{status}");
        // Unknown collection.
        let (status, _) = http(
            addr,
            "POST",
            "/collections/nope/search_batch",
            r#"{"vectors":[[0.1,0.0]],"k":1}"#,
        );
        assert!(status.contains("404"), "{status}");
    }

    #[test]
    fn error_paths() {
        let (_server, addr) = server();
        // Bad JSON.
        let (status, _) = http(addr, "POST", "/collections", "{not json");
        assert!(status.contains("400"), "{status}");
        // Unknown metric.
        let (status, _) =
            http(addr, "POST", "/collections", r#"{"name":"x","dim":2,"metric":"BOGUS"}"#);
        assert!(status.contains("400"), "{status}");
        // Unknown route.
        let (status, _) = http(addr, "GET", "/nope", "");
        assert!(status.contains("404"), "{status}");
        // Wrong dimension insert.
        http(addr, "POST", "/collections", r#"{"name":"d","dim":3}"#);
        let (status, _) = http(
            addr,
            "POST",
            "/collections/d/entities",
            r#"{"ids":[1],"vectors":[[1.0]]}"#,
        );
        assert!(status.contains("400"), "{status}");
    }

    #[test]
    fn shutdown_is_clean() {
        let (server, addr) = server();
        server.shutdown();
        // New connections must fail (listener gone) — give the OS a moment.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200)).is_err()
                || {
                    // Some platforms accept into the backlog briefly; a write
                    // then read must at least not serve a response.
                    true
                }
        );
    }
}
