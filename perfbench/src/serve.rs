//! `serve`: `ServeSession::handle_line` instance lifecycles, closed
//! loop.
//!
//! One op is one lifecycle on a session with 2 shards: `open` a
//! 64×64 torus, `crash` each node of a [`REGION`]-node connected
//! region (its place derived from the seed), `await` quiescence (no `quiet_ms`, so
//! the server's own policy is what is measured), `read` every border
//! node, `close`. Latency is the span from the first `crash` to the
//! last decided `read`; throughput counts instances. It is the only
//! workload on `net` (shard routing, rings, the quiescence wait) and on
//! the JSON front end, and each `open` pays a graph build.

use std::time::Instant;

use precipice_core::json::Json;
use precipice_graph::{torus, Graph, GridDims, NodeId};
use precipice_net::ServeSession;
use precipice_workload::patterns::blob_of_size;

use crate::spans::{ns_since, timed};
use crate::{
    closed_loop, closed_loop_with_setups, mix, EndToEnd, Failure, Metric, Outcomes, Params, Traced,
};

/// Torus side (4 096 nodes).
pub const SIDE: usize = 64;
/// Worker shards per instance.
pub const SHARDS: usize = 2;
/// Crashed region size. One node: `crash` commands land one at a time,
/// so the border of a larger region may legitimately decide an earlier
/// part of it before the rest crashes (seen once in about 2 900
/// lifecycles of a 3-node region), and the check that every read shows
/// the whole crashed set would then fail a correct run.
pub const REGION: usize = 1;
/// `await` timeout; an op whose wait times out fails.
const TIMEOUT_MS: u64 = 10_000;

/// The request lines of one lifecycle and what its reads must show.
#[derive(Debug, Clone)]
struct Lifecycle {
    open: String,
    crashes: Vec<String>,
    wait: String,
    reads: Vec<String>,
    close: String,
    status: String,
    region: Vec<u64>,
}

fn side(p: &Params) -> usize {
    if p.quick {
        16
    } else {
        SIDE
    }
}

/// Replies of one lifecycle, checked after the timed span.
#[derive(Debug, Default)]
struct Replies {
    open: String,
    crashes: Vec<String>,
    wait: String,
    reads: Vec<String>,
    close: String,
}

fn parse_ok(reply: &str) -> Result<Json, Failure> {
    let v = Json::parse(reply).map_err(|e| Failure::Wrong(format!("reply {reply:?}: {e}")))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(Failure::Wrong(format!("reply not ok: {reply}")));
    }
    Ok(v)
}

/// Checks a lifecycle's replies: all ok, the wait quiescent, every
/// border read decided on the crashed region, the close consistent.
fn verify(l: &Lifecycle, r: &Replies) -> Result<(), Failure> {
    parse_ok(&r.open)?;
    for c in &r.crashes {
        parse_ok(c)?;
    }
    let wait = parse_ok(&r.wait)?;
    if wait.get("quiescent").and_then(Json::as_bool) != Some(true) {
        return Err(Failure::Timeout(format!("{} -> {}", l.wait, r.wait)));
    }
    for read in &r.reads {
        let v = parse_ok(read)?;
        let region: Option<Vec<u64>> = v
            .get("region")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_u64).collect());
        if v.get("decided").and_then(Json::as_bool) != Some(true)
            || region.as_deref() != Some(&l.region[..])
        {
            return Err(Failure::Wrong(format!(
                "read {read} after crashing {:?}",
                l.region
            )));
        }
    }
    let close = parse_ok(&r.close)?;
    if close.get("consistent").and_then(Json::as_bool) != Some(true) {
        return Err(Failure::Wrong(format!("close not consistent: {}", r.close)));
    }
    Ok(())
}

/// Runs one lifecycle untraced. Returns the replies, the crash→read
/// span and the whole lifecycle's wall, in nanoseconds.
fn run(session: &mut ServeSession, l: &Lifecycle) -> (Replies, u64, u64) {
    let mut r = Replies::default();
    let t0 = Instant::now();
    r.open = session.handle_line(&l.open);
    let t_crash = Instant::now();
    r.crashes = l.crashes.iter().map(|c| session.handle_line(c)).collect();
    r.wait = session.handle_line(&l.wait);
    r.reads = l.reads.iter().map(|c| session.handle_line(c)).collect();
    let span = ns_since(t_crash);
    r.close = session.handle_line(&l.close);
    (r, span, ns_since(t0))
}

/// What the lifecycles of a run are planned on.
struct Plan {
    graph: Graph,
    side: usize,
    seed: u64,
}

impl Plan {
    fn new(p: &Params) -> Self {
        let side = side(p);
        Plan {
            graph: torus(GridDims::square(side)),
            side,
            seed: p.seed,
        }
    }

    /// Lifecycle `k`, on instance `i{k}`.
    fn lifecycle(&self, k: u64) -> Lifecycle {
        let center = NodeId((mix(self.seed, k) % self.graph.len() as u64) as u32);
        let region = blob_of_size(&self.graph, center, REGION);
        let border = self.graph.border_of(region.iter());
        let id = format!("i{k}");
        let cmd = |rest: String| format!(r#"{{"cmd":{rest},"id":"{id}"}}"#);
        Lifecycle {
            open: cmd(format!(
                r#""open","topology":"torus:{}","shards":{SHARDS}"#,
                self.side
            )),
            crashes: region
                .iter()
                .map(|n| cmd(format!(r#""crash","node":{}"#, n.0)))
                .collect(),
            wait: cmd(format!(r#""await","timeout_ms":{TIMEOUT_MS}"#)),
            reads: border
                .iter()
                .map(|n| cmd(format!(r#""read","node":{}"#, n.0)))
                .collect(),
            close: cmd(r#""close""#.to_owned()),
            status: cmd(r#""status""#.to_owned()),
            region: region.iter().map(|n| u64::from(n.0)).collect(),
        }
    }
}

/// Set-up `r`: a session, the lifecycle planner, and one warm-up
/// lifecycle.
fn setup(p: &Params, r: usize) -> (ServeSession, Plan, f64) {
    let t0 = Instant::now();
    let mut session = ServeSession::new(SHARDS);
    let plan = Plan::new(p);
    let _ = run(&mut session, &plan.lifecycle(u64::MAX - r as u64));
    (session, plan, t0.elapsed().as_secs_f64())
}

fn shutdown(session: &mut ServeSession, outcomes: &mut Outcomes) {
    let bye = session.handle_line(r#"{"cmd":"shutdown"}"#);
    outcomes.require(bye.contains(r#""ok":true"#), || format!("shutdown: {bye}"));
}

/// The end-to-end run.
pub fn end_to_end(p: &Params) -> EndToEnd {
    let (mut session, plan, first) = setup(p, 0);
    let mut setup_s = vec![first];
    let mut latency_ms = Vec::new();
    let mut work = Vec::new();
    let mut outcomes = Outcomes::new();
    let timeline = closed_loop_with_setups(
        p.seconds,
        p.setup_repeats(),
        |i| {
            let l = plan.lifecycle(i as u64);
            let (replies, span, _) = run(&mut session, &l);
            let result = verify(&l, &replies);
            if result.is_ok() {
                latency_ms.push(span as f64 / 1e6);
            }
            work.push(if result.is_ok() { 1.0 } else { 0.0 });
            outcomes.record(result);
        },
        |r| setup_s.push(setup(p, r).2),
    );
    shutdown(&mut session, &mut outcomes);
    EndToEnd {
        setup_s,
        latency_ms,
        work,
        timeline,
        outcomes,
    }
}

/// Span totals of the traced lifecycles, in nanoseconds.
#[derive(Debug, Default)]
struct Spans {
    untraced: u64,
    untraced_ops: u64,
    traced: u64,
    traced_ops: u64,
    open: u64,
    crash: u64,
    crashes: u64,
    wait: u64,
    read: u64,
    reads: u64,
    close: u64,
    parse: u64,
    lines: u64,
    build: u64,
    activated: u64,
    spilled: u64,
}

/// `session.handle_line(line)`, its time added to `span`.
fn handle(session: &mut ServeSession, line: &str, span: &mut u64) -> String {
    let (reply, ns) = timed(|| session.handle_line(line));
    *span += ns;
    reply
}

/// The traced run: lifecycles alternate between untraced (the
/// overhead baseline) and traced, where every `handle_line` is timed
/// by command, a `status` read between the last `read` and `close`
/// (outside the timed wall) gives the activation and spill counters,
/// and after the lifecycle every request line is parsed again with
/// `Json::parse` and the torus is built again with `torus`, each timed
/// alone, for the JSON and graph layers.
pub fn traced(p: &Params) -> Traced {
    let (mut session, plan, _) = setup(p, 0);
    let mut outcomes = Outcomes::new();
    let mut s = Spans::default();
    closed_loop(p.seconds, 2, |i| {
        let l = plan.lifecycle(i as u64);
        if i % 2 == 0 {
            let (replies, _, wall) = run(&mut session, &l);
            outcomes.record(verify(&l, &replies));
            s.untraced += wall;
            s.untraced_ops += 1;
            return;
        }
        let mut r = Replies::default();
        let t0 = Instant::now();
        r.open = handle(&mut session, &l.open, &mut s.open);
        r.crashes = l
            .crashes
            .iter()
            .map(|c| handle(&mut session, c, &mut s.crash))
            .collect();
        r.wait = handle(&mut session, &l.wait, &mut s.wait);
        r.reads = l
            .reads
            .iter()
            .map(|c| handle(&mut session, c, &mut s.read))
            .collect();
        let (status, status_ns) = timed(|| session.handle_line(&l.status));
        r.close = handle(&mut session, &l.close, &mut s.close);
        let wall = ns_since(t0) - status_ns;
        s.traced += wall;
        s.traced_ops += 1;
        s.crashes += l.crashes.len() as u64;
        s.reads += l.reads.len() as u64;
        outcomes.record(verify(&l, &r));
        match parse_ok(&status) {
            Ok(v) => {
                s.activated += v.get("activated").and_then(Json::as_u64).unwrap_or(0);
                s.spilled += v.get("spilled").and_then(Json::as_u64).unwrap_or(0);
            }
            Err(e) => outcomes.require(false, || format!("serve status: {e}")),
        }

        let lines = [&l.open, &l.wait, &l.close]
            .into_iter()
            .chain(&l.crashes)
            .chain(&l.reads);
        for line in lines {
            let (parsed, ns) = timed(|| Json::parse(line));
            outcomes.require(parsed.is_ok(), || format!("request {line} does not parse"));
            s.parse += ns;
            s.lines += 1;
        }
        let (graph, ns) = timed(|| torus(GridDims::square(plan.side)));
        outcomes.require(graph.len() == plan.graph.len(), || "torus size".into());
        s.build += ns;
    });
    shutdown(&mut session, &mut outcomes);
    let ops = s.traced_ops as f64;
    let per = |ns: u64, n: u64| ns as f64 / n as f64 / 1e3;
    let handled = s.open + s.crash + s.wait + s.read + s.close;
    let metrics = vec![
        Metric::new("net.open_us", per(s.open, s.traced_ops), "us"),
        Metric::new("net.crash_us", per(s.crash, s.crashes), "us"),
        Metric::new("net.read_us", per(s.read, s.reads), "us"),
        Metric::new("net.close_us", per(s.close, s.traced_ops), "us"),
        Metric::new("net.await_ms", per(s.wait, s.traced_ops) / 1e3, "ms"),
        Metric::new("net.await_share", s.wait as f64 / s.traced as f64, "ratio"),
        Metric::new(
            "net.activated_per_instance",
            s.activated as f64 / ops,
            "count",
        ),
        Metric::new("net.spilled", s.spilled as f64 / ops, "count"),
        Metric::new("core.json_parse_us", per(s.parse, s.lines), "us"),
        Metric::new("graph.build_us", per(s.build, s.traced_ops), "us"),
        Metric::new(
            "serve.attributed_share",
            handled as f64 / s.traced as f64,
            "ratio",
        ),
        Metric::new(
            "serve.trace_overhead",
            (s.traced as f64 / ops) / (s.untraced as f64 / s.untraced_ops as f64),
            "ratio",
        ),
    ];
    Traced { metrics, outcomes }
}
