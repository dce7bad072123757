//! End-to-end daemon tests over real localhost sockets: lifecycle,
//! cache warm-up, async jobs, admission control, and graceful drain.

use graphene_serve::client::{request, Connection};
use graphene_serve::{ServeOptions, Server};
use graphene_tune::json::{parse, Json};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(120);

fn get<'j>(v: &'j Json, path: &[&str]) -> &'j Json {
    path.iter().fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("missing field {k} in {v:?}")))
}

fn spawn_server(opts: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(opts).expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn full_lifecycle_over_one_connection() {
    let (addr, handle) = spawn_server(ServeOptions::default());
    let mut conn = Connection::connect(&addr, TIMEOUT).expect("connect");

    // lint
    let lint = parse(
        &conn.request(r#"{"id":1,"cmd":"lint","kernel":"gemm","m":256,"n":256,"k":64}"#).unwrap(),
    )
    .unwrap();
    assert_eq!(lint.get("ok"), Some(&Json::Bool(true)), "{lint:?}");
    assert_eq!(get(&lint, &["id"]).as_i64(), Some(1));
    assert_eq!(get(&lint, &["errors"]).as_i64(), Some(0));

    // run cold then warm: trace-cache hit, identical checksum.
    let line = r#"{"id":2,"cmd":"run","kernel":"gemm","m":256,"n":256,"k":64,"exec":"replay"}"#;
    let cold = parse(&conn.request(line).unwrap()).unwrap();
    let warm = parse(&conn.request(line).unwrap()).unwrap();
    assert_eq!(get(&cold, &["trace_hit"]), &Json::Bool(false));
    assert_eq!(get(&warm, &["trace_hit"]), &Json::Bool(true));
    assert_eq!(get(&cold, &["checksum"]).as_f64(), get(&warm, &["checksum"]).as_f64());

    // tune cold then warm: second is a db hit with zero simulations.
    let tline = r#"{"id":3,"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512}"#;
    let t_cold = parse(&conn.request(tline).unwrap()).unwrap();
    let t_warm = parse(&conn.request(tline).unwrap()).unwrap();
    assert_eq!(get(&t_cold, &["db_hit"]), &Json::Bool(false), "{t_cold:?}");
    assert_eq!(get(&t_warm, &["db_hit"]), &Json::Bool(true));
    assert_eq!(get(&t_warm, &["stats", "simulated"]).as_i64(), Some(0));

    // run-graph warm-up through the graph-trace cache.
    let gline = r#"{"cmd":"run-graph","layers":1,"seq":64,"hidden":256,"heads":4,"ffn":512,"exec":"replay"}"#;
    let g_cold = parse(&conn.request(gline).unwrap()).unwrap();
    let g_warm = parse(&conn.request(gline).unwrap()).unwrap();
    assert_eq!(get(&g_cold, &["graph_hit"]), &Json::Bool(false), "{g_cold:?}");
    assert_eq!(get(&g_warm, &["graph_hit"]), &Json::Bool(true));
    assert_eq!(get(&g_cold, &["checksum"]).as_f64(), get(&g_warm, &["checksum"]).as_f64());

    // stats reflect all of the above.
    let stats = parse(&conn.request(r#"{"cmd":"stats"}"#).unwrap()).unwrap();
    // run-graph recording also flows through the kernel trace cache,
    // so at least the warm `run` hit is visible (possibly more).
    assert!(get(&stats, &["caches", "traces", "hits"]).as_i64().unwrap() >= 1);
    assert_eq!(get(&stats, &["caches", "plans", "hits"]).as_i64(), Some(1));
    assert_eq!(get(&stats, &["caches", "graphs", "hits"]).as_i64(), Some(1));
    assert_eq!(get(&stats, &["caches", "tune_db", "hits"]).as_i64(), Some(1));
    assert!(get(&stats, &["requests", "run", "count"]).as_i64().unwrap() >= 2);

    // shutdown drains the server; the run thread exits cleanly.
    let bye = parse(&conn.request(r#"{"cmd":"shutdown"}"#).unwrap()).unwrap();
    assert_eq!(get(&bye, &["draining"]), &Json::Bool(true));
    handle.join().expect("server thread").expect("server run");

    // The drained server refuses new connections.
    assert!(request(&addr, r#"{"cmd":"stats"}"#, Duration::from_secs(2)).is_err());
}

#[test]
fn async_tune_job_polls_to_completion_and_cancel_works() {
    let (addr, handle) = spawn_server(ServeOptions::default());
    let mut conn = Connection::connect(&addr, TIMEOUT).expect("connect");

    // Force the job path even though the search is small.
    let resp = parse(
        &conn
            .request(r#"{"cmd":"tune","kernel":"layernorm","rows":512,"hidden":512,"job":true}"#)
            .unwrap(),
    )
    .unwrap();
    let id = get(&resp, &["job"]).as_i64().expect("job id");
    assert_eq!(get(&resp, &["state"]).as_str(), Some("queued"));
    assert!(get(&resp, &["planned"]).as_i64().unwrap() > 0);

    // Poll until done.
    let mut polled = None;
    for _ in 0..600 {
        let p = parse(&conn.request(&format!(r#"{{"cmd":"poll","job":{id}}}"#)).unwrap()).unwrap();
        let state = get(&p, &["state"]).as_str().unwrap().to_string();
        assert!(p.get("ok") == Some(&Json::Bool(true)));
        if state == "done" {
            polled = Some(p);
            break;
        }
        assert!(state == "queued" || state == "running", "unexpected state {state}");
        std::thread::sleep(Duration::from_millis(100));
    }
    let polled = polled.expect("job did not finish in 60s");
    assert_eq!(get(&polled, &["progress", "fraction"]).as_f64(), Some(1.0));
    assert!(get(&polled, &["result", "stats", "simulated"]).as_i64().unwrap() > 0);

    // Cancelling a finished job is a no-op; cancelling an unknown id errors.
    let c = parse(&conn.request(&format!(r#"{{"cmd":"cancel","job":{id}}}"#)).unwrap()).unwrap();
    assert_eq!(get(&c, &["state"]).as_str(), Some("done"));
    let bad = parse(&conn.request(r#"{"cmd":"cancel","job":424242}"#).unwrap()).unwrap();
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));

    conn.request(r#"{"cmd":"shutdown"}"#).unwrap();
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn admission_control_busy_rejects_past_the_queue_bound() {
    // One worker, one queue slot. Connection A pins the worker (it is
    // being served and stays open); B fills the queue; C must be
    // busy-rejected.
    let opts = ServeOptions { workers: 1, queue_cap: 1, deadline_ms: 0, ..Default::default() };
    let (addr, handle) = spawn_server(opts);

    let mut a = Connection::connect(&addr, TIMEOUT).expect("connect A");
    // Make sure A is actually being served (a completed round-trip
    // proves a worker owns it).
    a.request(r#"{"cmd":"stats"}"#).unwrap();

    let _b = Connection::connect(&addr, TIMEOUT).expect("connect B");
    // B sits in the admission queue; give the accept loop time to see
    // it before C arrives.
    std::thread::sleep(Duration::from_millis(300));

    let mut c = Connection::connect(&addr, TIMEOUT).expect("connect C");
    let rejected = parse(&c.request(r#"{"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)), "{rejected:?}");
    assert!(get(&rejected, &["error"]).as_str().unwrap().contains("busy"));

    // A still works, and its stats show the rejection.
    let stats = parse(&a.request(r#"{"cmd":"stats"}"#).unwrap()).unwrap();
    assert!(get(&stats, &["busy_rejected"]).as_i64().unwrap() >= 1);

    a.request(r#"{"cmd":"shutdown"}"#).unwrap();
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn queue_wait_deadline_rejects_stale_connections() {
    // One worker with a 50 ms queue deadline: A pins the worker for
    // 400 ms while B waits in the queue past its deadline.
    let opts = ServeOptions { workers: 1, queue_cap: 8, deadline_ms: 50, ..Default::default() };
    let (addr, handle) = spawn_server(opts);

    let mut a = Connection::connect(&addr, TIMEOUT).expect("connect A");
    a.request(r#"{"cmd":"stats"}"#).unwrap();

    let mut b = Connection::connect(&addr, TIMEOUT).expect("connect B");
    std::thread::sleep(Duration::from_millis(400));
    drop(a); // frees the worker, which now pops B — stale by 400 ms

    let resp = parse(&b.request(r#"{"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
    assert!(get(&resp, &["error"]).as_str().unwrap().contains("deadline"));

    let mut c = Connection::connect(&addr, TIMEOUT).expect("connect C");
    let stats = parse(&c.request(r#"{"cmd":"stats"}"#).unwrap()).unwrap();
    assert!(get(&stats, &["deadline_rejected"]).as_i64().unwrap() >= 1);

    c.request(r#"{"cmd":"shutdown"}"#).unwrap();
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn oversized_request_line_is_answered_and_the_connection_keeps_serving() {
    use graphene_serve::server::MAX_LINE_BYTES;
    let (addr, handle) = spawn_server(ServeOptions { workers: 1, ..ServeOptions::default() });
    let mut conn = Connection::connect(&addr, TIMEOUT).expect("connect");
    // A line of exactly the limit is served (its padding is trimmed).
    let stats = r#"{"id":1,"cmd":"stats"}"#;
    let at_limit = " ".repeat(MAX_LINE_BYTES - stats.len()) + stats;
    let ok = parse(&conn.request(&at_limit).unwrap()).unwrap();
    assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok:?}");
    // One byte over, and far over: each is discarded through its
    // newline and answered with an error naming the limit.
    for len in [MAX_LINE_BYTES + 1, 3 * MAX_LINE_BYTES] {
        let resp = parse(&conn.request(&"x".repeat(len)).unwrap()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{len} bytes");
        let err = get(&resp, &["error"]).as_str().unwrap().to_string();
        assert!(err.contains(&format!("{MAX_LINE_BYTES}-byte limit")), "{err}");
    }
    // The same connection still serves, and counts both.
    let stats = parse(&conn.request(r#"{"id":2,"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(get(&stats, &["id"]).as_i64(), Some(2));
    assert_eq!(get(&stats, &["oversized"]).as_i64(), Some(2));
    assert_eq!(get(&stats, &["malformed"]).as_i64(), Some(0));
    conn.request(r#"{"cmd":"shutdown"}"#).unwrap();
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn too_deep_request_line_is_answered_and_the_connection_keeps_serving() {
    use graphene_tune::json::MAX_DEPTH;
    let (addr, handle) = spawn_server(ServeOptions { workers: 1, ..ServeOptions::default() });
    let mut conn = Connection::connect(&addr, TIMEOUT).expect("connect");
    // 10,000 levels of `[` would overflow a worker's stack in a
    // recursive parser; the bounded one answers it as malformed.
    let deep =
        format!(r#"{{"id":1,"cmd":"stats","x":{}{}}}"#, "[".repeat(10_000), "]".repeat(10_000));
    let resp = parse(&conn.request(&deep).unwrap()).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
    let err = get(&resp, &["error"]).as_str().unwrap().to_string();
    assert!(err.contains(&format!("deeper than {MAX_DEPTH} levels")), "{err}");
    // The same connection still serves, and counts it once.
    let stats = parse(&conn.request(r#"{"id":2,"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(get(&stats, &["id"]).as_i64(), Some(2));
    assert_eq!(get(&stats, &["malformed"]).as_i64(), Some(1));
    conn.request(r#"{"cmd":"shutdown"}"#).unwrap();
    handle.join().expect("server thread").expect("server run");
}
