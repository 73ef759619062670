//! Loopback integration over raw sockets: the daemon's one connection
//! protocol (control requests answered immediately, job lines streamed
//! back tagged with their ids, a `mode:"units"` summary at half-close),
//! results bit-identical to the in-process engine, and the client's
//! readiness probes and connection limits. Batch dispatch across daemons
//! is covered by the `psdacc-sched` fleet suite.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, Engine};
use psdacc_serve::{client, Server, ServerHandle};

fn spawn_memory_daemon(threads: usize) -> ServerHandle {
    Server::bind("127.0.0.1:0", Engine::new(threads)).unwrap().spawn().unwrap()
}

/// A result line minus its run-dependent fields (timings, cache hit flag):
/// everything that remains must be bit-identical across processes.
fn stable_fields(line: &str) -> Vec<(String, Json)> {
    match json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}")) {
        Json::Obj(fields) => fields
            .into_iter()
            .filter(|(k, _)| {
                !matches!(k.as_str(), "tau_pp_seconds" | "tau_eval_seconds" | "cache_hit")
            })
            .collect(),
        other => panic!("result line is not an object: {other:?}"),
    }
}

fn stat(line: &str, field: &str) -> u64 {
    json::parse(line).unwrap().get(field).and_then(Json::as_u64).unwrap()
}

/// Control requests answer immediately, malformed lines get error
/// responses without killing the connection, and a job line needs no
/// `evaluate_units` opener: it streams back as a result tagged with its
/// id, and half-close ends the stream with the `mode:"units"` summary.
#[test]
fn protocol_robustness_over_a_raw_socket() {
    let daemon = spawn_memory_daemon(2);
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();

    // Garbage line -> error response, connection stays up.
    writeln!(&stream, "this is not json").unwrap();
    reader.read_line(&mut line).unwrap();
    let v = json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));
    assert_eq!(v.get("line").unwrap().as_u64(), Some(1));

    // scenarios still answered on the same connection.
    line.clear();
    writeln!(&stream, "{{\"kind\":\"scenarios\"}}").unwrap();
    reader.read_line(&mut line).unwrap();
    let v = json::parse(line.trim_end()).unwrap();
    assert_eq!(
        v.get("count").unwrap().as_u64(),
        Some(psdacc_engine::ScenarioRegistry::new().families().len() as u64)
    );

    // A job against an invalid scenario parameter fails at parse time with
    // a described error...
    line.clear();
    writeln!(&stream, "{{\"kind\":\"evaluate\",\"scenario\":\"fir-bank index=9999\",\"bits\":12}}")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let v = json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));

    // ...while a valid job comes back as a result carrying its id, and
    // half-close ends the stream with the unit summary.
    writeln!(
        &stream,
        "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"bits\":12,\"id\":5}}"
    )
    .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let rest: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(rest.len(), 2, "{rest:?}");
    let result = json::parse(&rest[0]).unwrap();
    assert_eq!(result.get("job").unwrap().as_u64(), Some(5));
    assert!(result.get("power").unwrap().as_f64().unwrap() > 0.0);
    let summary = json::parse(&rest[1]).unwrap();
    assert_eq!(summary.get("kind").unwrap().as_str(), Some("summary"));
    assert_eq!(summary.get("mode").unwrap().as_str(), Some("units"));
    assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(1));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));

    // A control-only connection gets exactly its replies: no job stream
    // was opened, so half-close sends no summary.
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{{\"kind\":\"hello\"}}").unwrap();
    writeln!(&stream, "{{\"kind\":\"stats\"}}").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let replies: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    let kinds: Vec<Option<String>> = replies
        .iter()
        .map(|l| json::parse(l).unwrap().get("kind").and_then(Json::as_str).map(String::from))
        .collect();
    assert_eq!(kinds, [Some("hello".to_string()), Some("stats".to_string())], "{replies:?}");
    daemon.shutdown();
}

/// `wait_ready` turns `daemon & psdacc-sched submit` scripting into a
/// non-race.
#[test]
fn wait_ready_sees_a_live_daemon_and_times_out_on_a_dead_one() {
    let daemon = spawn_memory_daemon(1);
    client::wait_ready(&daemon.addr().to_string(), std::time::Duration::from_secs(10)).unwrap();
    let addr = daemon.addr();
    daemon.shutdown();
    assert!(client::wait_ready(&addr.to_string(), std::time::Duration::from_millis(200)).is_err());
}

/// The all-workers readiness probe names *every* dead address at once,
/// instead of serially timing out on the first.
#[test]
fn unreachable_workers_fail_fast_with_their_addresses_named() {
    let live = spawn_memory_daemon(1);
    let live_addr = live.addr().to_string();
    // Port 1 on loopback: connection refused immediately.
    let dead_a = "127.0.0.1:1".to_string();
    let dead_b = "127.0.0.1:2".to_string();

    let t0 = std::time::Instant::now();
    let workers = vec![live_addr, dead_a.clone(), dead_b.clone()];
    let err = client::wait_all_ready(&workers, std::time::Duration::from_millis(300)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(&dead_a) && msg.contains(&dead_b), "{msg}");
    assert!(msg.contains("2 of 3"), "{msg}");
    assert!(t0.elapsed() < std::time::Duration::from_secs(30), "no connect hang");
    live.shutdown();
}

/// Connections beyond `--max-connections` get one explanatory error line
/// and a closed socket, while admitted connections keep working.
#[test]
fn connection_limit_refuses_with_an_error_line() {
    use psdacc_serve::ServerConfig;
    let config = ServerConfig { max_connections: Some(1), ..ServerConfig::default() };
    let daemon = Server::bind_with("127.0.0.1:0", Engine::new(1), config).unwrap().spawn().unwrap();

    // First connection occupies the only slot (held open, no half-close).
    // The single-threaded accept loop admits connections in connect order,
    // so this one is accepted (and stays active, blocked in read) before
    // any probe below is looked at.
    let held = TcpStream::connect(daemon.addr()).unwrap();
    // Probe with a read timeout: a refused probe gets the error line; in
    // the unlikely window where the probe lands before `held` is admitted,
    // the read times out and we retry on a fresh socket.
    let mut refused_line = None;
    for _ in 0..100 {
        let over = TcpStream::connect(daemon.addr()).unwrap();
        over.set_read_timeout(Some(std::time::Duration::from_millis(200))).unwrap();
        let mut reader = BufReader::new(over);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                refused_line = Some(line);
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let line = refused_line.expect("over-limit connection never refused");
    let v = json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));
    assert!(v.get("error").unwrap().as_str().unwrap().contains("connection limit (1)"), "{line}");

    // The held connection still serves.
    let mut reader = BufReader::new(held.try_clone().unwrap());
    writeln!(&held, "{{\"kind\":\"hello\"}}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(json::parse(reply.trim_end()).unwrap().get("kind").unwrap().as_str(), Some("hello"));
    // Both fds (the socket and its reader clone) must drop for the daemon
    // to see EOF and release the slot.
    drop(reader);
    drop(held);

    // Slot freed: new connections are admitted again (stats answers).
    let mut ok = false;
    for _ in 0..100 {
        // A probe landing before the slot frees gets the refusal line
        // (kind `error`) back — keep polling until a real stats reply.
        if let Ok(stats) = client::request_control(&daemon.addr().to_string(), "stats") {
            let v = json::parse(&stats).unwrap();
            if v.get("kind").and_then(Json::as_str) == Some("stats") {
                assert_eq!(v.get("max_connections").unwrap().as_u64(), Some(1));
                assert!(v.get("rejected_connections").unwrap().as_u64().unwrap() >= 1);
                ok = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(ok, "slot never freed after the held connection closed");
    daemon.shutdown();
}

/// A job stream opened by `evaluate_units` over a raw socket: jobs execute
/// as they arrive, results come back tagged (any order), control requests
/// interleave, and half-close yields a `mode:"units"` summary.
#[test]
fn evaluate_units_mode_streams_results_as_they_complete() {
    let daemon = spawn_memory_daemon(2);
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{{\"kind\":\"evaluate_units\"}}").unwrap();
    writeln!(
        &stream,
        "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"npsd\":64,\"bits\":12,\"id\":7}}"
    )
    .unwrap();
    writeln!(
        &stream,
        "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"npsd\":64,\"bits\":10,\"id\":3}}"
    )
    .unwrap();
    // A control request interleaves mid-stream.
    writeln!(&stream, "{{\"kind\":\"hello\"}}").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    let parsed: Vec<Json> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
    let ids: Vec<u64> = parsed
        .iter()
        .filter(|v| v.get("power").is_some())
        .map(|v| v.get("job").unwrap().as_u64().unwrap())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![3, 7], "{lines:?}");
    assert!(parsed.iter().any(|v| v.get("kind").and_then(Json::as_str) == Some("hello")));
    let summary = parsed.last().unwrap();
    assert_eq!(summary.get("kind").unwrap().as_str(), Some("summary"));
    assert_eq!(summary.get("mode").unwrap().as_str(), Some("units"));
    assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(2));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));

    // The unit results are bit-identical to the engine's own evaluation.
    let spec = BatchSpec::parse("scenario freq-filter\nbatch npsd=64 bits=10,12\n").unwrap();
    let expected = Engine::new(1).run(spec.jobs());
    let by_id = |id: u64| parsed.iter().find(|v| v.get("job").and_then(Json::as_u64) == Some(id));
    assert_eq!(
        by_id(3).unwrap().get("power").unwrap().as_f64(),
        expected.results[0].power,
        "bits=10"
    );
    assert_eq!(
        by_id(7).unwrap().get("power").unwrap().as_f64(),
        expected.results[1].power,
        "bits=12"
    );
    daemon.shutdown();
}

/// A job stream with a wire trace context: the daemon records a
/// `serve.unit` span per unit parented under the coordinator's span, with
/// parse/cache/preprocess/tau_eval/serialize children, all retrievable
/// via the `trace` control verb — and results stay bit-identical to an
/// untraced run.
#[test]
fn evaluate_units_trace_context_yields_parented_daemon_spans() {
    use psdacc_serve::TraceContext;

    let daemon = spawn_memory_daemon(2);
    let run = |trace: Option<&TraceContext>| -> Vec<String> {
        let stream = TcpStream::connect(daemon.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(&stream, "{}", psdacc_serve::evaluate_units_line(trace)).unwrap();
        for (id, bits) in [(7u64, 12u64), (3, 10)] {
            writeln!(
                &stream,
                "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"npsd\":64,\
                 \"bits\":{bits},\"id\":{id}}}"
            )
            .unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        reader.lines().map(|l| l.unwrap()).collect()
    };

    let root = psdacc_obs::SpanId::from_hex("00c0ffee00000001").unwrap();
    let ctx = TraceContext { batch: "it-batch".to_string(), span: Some(root) };
    let traced = run(Some(&ctx));
    let untraced = run(None);

    // Observability is behavior-neutral: same stable fields, traced or not.
    let results = |lines: &[String]| -> Vec<Vec<(String, Json)>> {
        let mut rows: Vec<(u64, Vec<(String, Json)>)> = lines
            .iter()
            .filter(|l| l.contains("\"power\""))
            .map(|l| (stat(l, "job"), stable_fields(l)))
            .collect();
        rows.sort_by_key(|(id, _)| *id);
        rows.into_iter().map(|(_, f)| f).collect()
    };
    assert_eq!(results(&traced), results(&untraced));

    // Fetch the daemon-side trace for the batch.
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{}", psdacc_serve::trace_request_line("it-batch")).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let events = psdacc_serve::parse_trace_reply(line.trim_end()).unwrap();
    assert!(!events.is_empty(), "{line}");

    // Every unit span parents directly under the coordinator's root span.
    let unit_spans: Vec<_> = events.iter().filter(|e| e.name == "serve.unit").collect();
    assert_eq!(unit_spans.len(), 2, "{line}");
    for span in &unit_spans {
        assert_eq!(span.parent, Some(root), "serve.unit must parent under the wire span");
        assert_eq!(span.batch, "it-batch");
        assert!(span.unit == Some(3) || span.unit == Some(7));
    }
    // Each unit carries the full stage breakdown as children of its span.
    for parent in &unit_spans {
        for stage in ["unit.parse", "unit.cache_lookup", "unit.tau_eval", "unit.serialize"] {
            assert!(
                events.iter().any(|e| e.name == stage && e.parent == Some(parent.span)),
                "missing {stage} under {:?}: {line}",
                parent.unit
            );
        }
    }
    // At least one unit missed the cold cache: its lookup span has a
    // reconstructed `unit.preprocess` child carrying the build cost.
    assert!(events.iter().any(|e| e.name == "unit.preprocess"), "{line}");
    // An unknown batch is a clean error, not a hang.
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{}", psdacc_serve::trace_request_line("no-such-batch")).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(psdacc_serve::parse_trace_reply(line.trim_end()).is_err(), "{line}");
    daemon.shutdown();
}
