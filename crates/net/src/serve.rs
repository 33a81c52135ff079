//! The `precipice serve` session: line-delimited JSON driving live
//! agreement instances (maelstrom-style).
//!
//! A [`ServeSession`] is the protocol brain behind the CLI's `serve`
//! subcommand, factored as a library so tests can drive it in-process:
//! one command line in, one response line out, no I/O in here. Each
//! *instance* is an independent [`ShardedCluster`] over its own
//! topology — many instances run concurrently in one process, and a
//! mapped `.pcsr` topology puts a 10⁶-node instance within one
//! process's reach.
//!
//! # Protocol
//!
//! Requests are single-line JSON objects with a `"cmd"` field;
//! responses always carry `"ok"` (with `"error"` explaining a
//! failure). Commands:
//!
//! | cmd | fields | effect |
//! |-----|--------|--------|
//! | `open` | `topology`, `id?`, `shards?`, `optimized?` | start an instance |
//! | `crash` | `id?`, `node` | kill a node |
//! | `await` | `id?`, `quiet_ms?`, `timeout_ms?` | wait for quiescence |
//! | `read` | `id?`, `node` | that node's decision, if any |
//! | `status` | `id?` | instance counters |
//! | `close` | `id?` | shut the instance down, report verdict |
//! | `shutdown` | | close everything and end the session |
//!
//! `topology` takes any [`TopologySpec`](precipice_graph::TopologySpec),
//! the same specs as the CLI's `--topology` (random kinds with seed 0):
//! built in memory up to [`MAX_BUILT_NODES`](precipice_graph::MAX_BUILT_NODES)
//! nodes, or `pcsr:PATH` (a mapped graph store file) for anything
//! larger. `id` defaults to `"default"` everywhere.
//!
//! A worked session (`$` = request, `>` = response):
//!
//! ```text
//! $ {"cmd":"open","topology":"torus:4","shards":2}
//! > {"ok":true,"id":"default","nodes":16,"shards":2}
//! $ {"cmd":"crash","node":9}
//! > {"ok":true,"killed":9}
//! $ {"cmd":"await"}
//! > {"ok":true,"quiescent":true,"pending":0}
//! $ {"cmd":"read","node":8}
//! > {"ok":true,"node":8,"decided":true,"region":[9],"border":[5,8,10,13],"value":5}
//! $ {"cmd":"close"}
//! > {"ok":true,"id":"default","decisions":4,"killed":1,"consistent":true}
//! ```

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use precipice_core::json::Json;
use precipice_core::ProtocolConfig;
use precipice_graph::{parse_topology, NodeId, Region};

use crate::gate::live_consistent;
use crate::shard::ShardedCluster;

/// Default worker shard count for instances that don't specify one.
const DEFAULT_SHARDS: usize = 2;

/// The longest request line [`ServeSession::serve`] reads (1 MiB); a
/// longer line is answered with an error reply and skipped.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A long-lived serve session: named live instances plus the command
/// dispatcher. See the [module docs](self) for the wire protocol.
#[derive(Debug)]
pub struct ServeSession {
    instances: BTreeMap<String, ShardedCluster>,
    default_shards: usize,
    finished: bool,
}

impl Default for ServeSession {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl ServeSession {
    /// Creates an empty session; `default_shards` applies to `open`
    /// commands that don't pass `shards`.
    pub fn new(default_shards: usize) -> Self {
        ServeSession {
            instances: BTreeMap::new(),
            default_shards: default_shards.max(1),
            finished: false,
        }
    }

    /// True once a `shutdown` command was processed: the driver should
    /// stop reading and exit cleanly.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Handles one request line, returning the response line (no
    /// trailing newline).
    pub fn handle_line(&mut self, line: &str) -> String {
        self.handle(line).unwrap_or_else(err).to_line()
    }

    /// Serves request lines from `input` until `shutdown` or end of
    /// input, writing one response line per request to `output`. Blank
    /// lines and `#` comments are skipped. A line that is not UTF-8 or
    /// is longer than [`MAX_LINE_BYTES`] gets an error reply, and the
    /// session keeps serving; only an I/O error ends it early.
    pub fn serve(&mut self, mut input: impl BufRead, mut output: impl Write) -> io::Result<()> {
        let mut line = Vec::new();
        while let Some(fits) = read_capped_line(&mut input, &mut line)? {
            let response = if !fits {
                err(format!("line longer than {MAX_LINE_BYTES} bytes")).to_line()
            } else {
                match std::str::from_utf8(&line).map(str::trim) {
                    Err(e) => err(format!("line is not UTF-8: {e}")).to_line(),
                    Ok(text) if text.is_empty() || text.starts_with('#') => continue,
                    Ok(text) => self.handle_line(text),
                }
            };
            writeln!(output, "{response}")?;
            output.flush()?;
            if self.finished {
                break;
            }
        }
        Ok(())
    }

    fn handle(&mut self, line: &str) -> Result<Json, String> {
        let request = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing \"cmd\"")?
            .to_owned();
        match cmd.as_str() {
            "open" => self.open(&request),
            "crash" => self.crash(&request),
            "await" => self.await_quiet(&request),
            "read" => self.read(&request),
            "status" => self.status(&request),
            "close" => self.close(&request),
            "shutdown" => self.shutdown_all(),
            other => Err(format!("unknown cmd {other:?}")),
        }
    }

    fn open(&mut self, request: &Json) -> Result<Json, String> {
        let id = instance_id(request);
        if self.instances.contains_key(&id) {
            return Err(format!("instance {id:?} already open"));
        }
        let spec = request
            .get("topology")
            .and_then(Json::as_str)
            .ok_or("open needs a \"topology\"")?;
        let graph = parse_topology(spec, 0)?;
        let shards = match request.get("shards") {
            Some(v) => v.as_u64().ok_or("\"shards\" must be a positive integer")? as usize,
            None => self.default_shards,
        };
        if shards == 0 {
            return Err("\"shards\" must be a positive integer".into());
        }
        let config = match request.get("optimized").and_then(Json::as_bool) {
            Some(true) => ProtocolConfig::optimized(),
            _ => ProtocolConfig::default(),
        };
        let cluster = ShardedCluster::start_shared(Arc::new(graph), config, shards);
        let nodes = cluster.graph().len();
        let shards = cluster.shards();
        self.instances.insert(id.clone(), cluster);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("id", Json::from(id)),
            ("nodes", Json::from(nodes)),
            ("shards", Json::from(shards)),
        ]))
    }

    fn instance(&mut self, request: &Json) -> Result<&mut ShardedCluster, String> {
        let id = instance_id(request);
        self.instances
            .get_mut(&id)
            .ok_or_else(|| format!("no open instance {id:?}"))
    }

    fn crash(&mut self, request: &Json) -> Result<Json, String> {
        let node = node_field(request)?;
        let cluster = self.instance(request)?;
        if !cluster.graph().contains(node) {
            return Err(format!("{node} is not in the topology"));
        }
        cluster.kill(node);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("killed", Json::from(node.0 as u64)),
        ]))
    }

    fn await_quiet(&mut self, request: &Json) -> Result<Json, String> {
        let quiet = duration_field(request, "quiet_ms", 100)?;
        let timeout = duration_field(request, "timeout_ms", 30_000)?;
        let cluster = self.instance(request)?;
        let quiescent = cluster.await_quiescence(quiet, timeout);
        let pending = cluster.pending();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("quiescent", Json::Bool(quiescent)),
            ("pending", Json::from(pending)),
        ]))
    }

    fn read(&mut self, request: &Json) -> Result<Json, String> {
        let node = node_field(request)?;
        let cluster = self.instance(request)?;
        if !cluster.graph().contains(node) {
            return Err(format!("{node} is not in the topology"));
        }
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("node", Json::from(node.0 as u64)),
        ];
        if cluster.killed().contains(&node) {
            fields.push(("crashed", Json::Bool(true)));
            fields.push(("decided", Json::Bool(false)));
        } else if let Some((view, value)) = cluster.decision_of(node) {
            fields.push(("decided", Json::Bool(true)));
            fields.push(("region", region_json(view.region())));
            fields.push(("border", region_json(view.border())));
            fields.push(("value", Json::from(value.0 as u64)));
        } else {
            fields.push(("decided", Json::Bool(false)));
        }
        Ok(Json::obj(fields))
    }

    fn status(&mut self, request: &Json) -> Result<Json, String> {
        let id = instance_id(request);
        let cluster = self.instance(request)?;
        let killed: Vec<Json> = cluster
            .killed()
            .iter()
            .map(|n| Json::from(n.0 as u64))
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("id", Json::from(id)),
            ("nodes", Json::from(cluster.graph().len())),
            ("shards", Json::from(cluster.shards())),
            ("activated", Json::from(cluster.activated())),
            ("pending", Json::from(cluster.pending())),
            ("decisions", Json::from(cluster.decisions_snapshot().len())),
            ("killed", Json::Arr(killed)),
            ("spilled", Json::from(cluster.spilled())),
        ]))
    }

    fn close(&mut self, request: &Json) -> Result<Json, String> {
        let id = instance_id(request);
        let cluster = self
            .instances
            .remove(&id)
            .ok_or_else(|| format!("no open instance {id:?}"))?;
        Ok(close_report(id, cluster))
    }

    fn shutdown_all(&mut self) -> Result<Json, String> {
        let mut closed = Vec::new();
        let mut all_consistent = true;
        for (id, cluster) in std::mem::take(&mut self.instances) {
            let report = close_report(id.clone(), cluster);
            all_consistent &= report.get("consistent").and_then(Json::as_bool) == Some(true);
            closed.push(Json::from(id));
        }
        self.finished = true;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("closed", Json::Arr(closed)),
            ("consistent", Json::Bool(all_consistent)),
        ]))
    }
}

/// Shuts `cluster` down and summarizes it: decision count, kill count,
/// and the live agreement verdict (every decision internally consistent
/// and pairwise in agreement — the full CD1–CD7 oracle is the runtime
/// checker's job).
fn close_report(id: String, cluster: ShardedCluster) -> Json {
    let graph = Arc::clone(cluster.graph());
    let killed = cluster.killed().len();
    let report = cluster.shutdown();
    let consistent = live_consistent(&report, &graph);
    Json::obj([
        ("ok", Json::Bool(true)),
        ("id", Json::from(id)),
        ("decisions", Json::from(report.decisions.len())),
        ("killed", Json::from(killed)),
        ("consistent", Json::Bool(consistent)),
    ])
}

/// Reads one `\n`-terminated line into `line`, keeping at most
/// [`MAX_LINE_BYTES`] bytes: the rest of a longer line is read and
/// dropped. Returns `None` at end of input, else whether the line fit.
fn read_capped_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    line.clear();
    let (mut fits, mut read_any) = (true, false);
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(read_any.then_some(fits));
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        fits &= line.len() + part.len() <= MAX_LINE_BYTES;
        if fits {
            line.extend_from_slice(part);
        } else {
            line.clear();
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        input.consume(used);
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

fn err(message: String) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::from(message))])
}

fn instance_id(request: &Json) -> String {
    request
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("default")
        .to_owned()
}

fn node_field(request: &Json) -> Result<NodeId, String> {
    request
        .get("node")
        .and_then(Json::as_u64)
        .filter(|&n| n <= u32::MAX as u64)
        .map(|n| NodeId(n as u32))
        .ok_or_else(|| "missing or invalid \"node\"".into())
}

fn duration_field(request: &Json, key: &str, default_ms: u64) -> Result<Duration, String> {
    match request.get(key) {
        None => Ok(Duration::from_millis(default_ms)),
        Some(v) => v
            .as_u64()
            .map(Duration::from_millis)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer (milliseconds)")),
    }
}

fn region_json(region: &Region) -> Json {
    Json::Arr(region.iter().map(|n| Json::from(n.0 as u64)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(response: &str) -> Json {
        let v = Json::parse(response).expect("response parses");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok: {response}"
        );
        v
    }

    fn fail(response: &str) -> String {
        let v = Json::parse(response).expect("response parses");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        v.get("error").and_then(Json::as_str).unwrap().to_owned()
    }

    #[test]
    fn full_round_trip_crash_agree_read() {
        let mut s = ServeSession::default();
        let opened = ok(&s.handle_line(r#"{"cmd":"open","topology":"torus:4","shards":2}"#));
        assert_eq!(opened.get("nodes").and_then(Json::as_u64), Some(16));
        ok(&s.handle_line(r#"{"cmd":"crash","node":9}"#));
        let waited = ok(&s.handle_line(r#"{"cmd":"await","quiet_ms":150,"timeout_ms":20000}"#));
        assert_eq!(waited.get("quiescent").and_then(Json::as_bool), Some(true));
        let read = ok(&s.handle_line(r#"{"cmd":"read","node":8}"#));
        assert_eq!(read.get("decided").and_then(Json::as_bool), Some(true));
        assert_eq!(
            read.get("region")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        let closed = ok(&s.handle_line(r#"{"cmd":"close"}"#));
        assert_eq!(closed.get("consistent").and_then(Json::as_bool), Some(true));
        assert_eq!(closed.get("decisions").and_then(Json::as_u64), Some(4));
        assert!(!s.finished());
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
        assert!(s.finished());
    }

    #[test]
    fn many_concurrent_instances() {
        let mut s = ServeSession::new(1);
        for i in 0..4 {
            ok(&s.handle_line(&format!(
                r#"{{"cmd":"open","id":"i{i}","topology":"path:5"}}"#
            )));
            ok(&s.handle_line(&format!(r#"{{"cmd":"crash","id":"i{i}","node":2}}"#)));
        }
        for i in 0..4 {
            let waited = ok(&s.handle_line(&format!(
                r#"{{"cmd":"await","id":"i{i}","quiet_ms":150,"timeout_ms":20000}}"#
            )));
            assert_eq!(waited.get("quiescent").and_then(Json::as_bool), Some(true));
        }
        let down = ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
        assert_eq!(down.get("consistent").and_then(Json::as_bool), Some(true));
        assert_eq!(
            down.get("closed")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(4)
        );
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = ServeSession::default();
        assert!(fail(&s.handle_line("not json")).contains("json error"));
        assert!(fail(&s.handle_line(r#"{"nope":1}"#)).contains("cmd"));
        assert!(fail(&s.handle_line(r#"{"cmd":"warp"}"#)).contains("unknown cmd"));
        assert!(fail(&s.handle_line(r#"{"cmd":"crash","node":0}"#)).contains("no open instance"));
        ok(&s.handle_line(r#"{"cmd":"open","topology":"path:3"}"#));
        assert!(
            fail(&s.handle_line(r#"{"cmd":"open","topology":"path:3"}"#)).contains("already open")
        );
        assert!(fail(&s.handle_line(r#"{"cmd":"crash","node":99}"#)).contains("not in"));
        assert!(
            fail(&s.handle_line(r#"{"cmd":"open","id":"x","topology":"moebius:3"}"#))
                .contains("unknown topology")
        );
        assert!(
            fail(&s.handle_line(r#"{"cmd":"open","id":"x","topology":"torus"}"#))
                .contains("malformed")
        );
        // Hostile lines: nesting that would overflow the parser's stack,
        // and graphs too large (or too small) to build.
        assert!(fail(&s.handle_line(&"[".repeat(200_000))).contains("too deep"));
        for spec in [
            "torus:100000",
            "grid:18446744073709551615x2",
            "ring:2000000",
            "torus:2",
        ] {
            let line = format!(r#"{{"cmd":"open","id":"x","topology":"{spec}"}}"#);
            assert!(fail(&s.handle_line(&line)).contains("nodes"), "{spec}");
        }
        // The session is still usable.
        ok(&s.handle_line(r#"{"cmd":"status"}"#));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }

    #[test]
    fn read_of_crashed_and_undecided_nodes() {
        let mut s = ServeSession::default();
        ok(&s.handle_line(r#"{"cmd":"open","topology":"path:5"}"#));
        ok(&s.handle_line(r#"{"cmd":"crash","node":2}"#));
        ok(&s.handle_line(r#"{"cmd":"await","quiet_ms":150,"timeout_ms":20000}"#));
        let dead = ok(&s.handle_line(r#"{"cmd":"read","node":2}"#));
        assert_eq!(dead.get("crashed").and_then(Json::as_bool), Some(true));
        let far = ok(&s.handle_line(r#"{"cmd":"read","node":4}"#));
        assert_eq!(far.get("decided").and_then(Json::as_bool), Some(false));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }

    #[test]
    fn status_reports_lazy_footprint() {
        let mut s = ServeSession::default();
        ok(&s.handle_line(r#"{"cmd":"open","topology":"torus:16","shards":3}"#));
        ok(&s.handle_line(r#"{"cmd":"crash","node":100}"#));
        ok(&s.handle_line(r#"{"cmd":"await","quiet_ms":150,"timeout_ms":20000}"#));
        let status = ok(&s.handle_line(r#"{"cmd":"status"}"#));
        assert_eq!(status.get("nodes").and_then(Json::as_u64), Some(256));
        assert_eq!(status.get("activated").and_then(Json::as_u64), Some(4));
        assert_eq!(status.get("decisions").and_then(Json::as_u64), Some(4));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }

    /// Bad bytes and an overlong line each get an error reply; the
    /// session keeps serving after both.
    #[test]
    fn malformed_lines_are_answered_not_fatal() {
        let mut input = b"\xff\n".to_vec();
        input.extend(std::iter::repeat_n(b' ', 2 * MAX_LINE_BYTES));
        input.extend_from_slice(b"\n# comment\n\n{\"cmd\":\"status\"}\n");
        let mut output = Vec::new();
        ServeSession::default()
            .serve(&input[..], &mut output)
            .unwrap();
        let replies: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert!(fail(replies[0]).contains("UTF-8"));
        assert!(fail(replies[1]).contains("longer than"));
        assert!(fail(replies[2]).contains("no open instance"), "status ran");
    }
}
