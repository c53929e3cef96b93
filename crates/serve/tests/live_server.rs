//! End-to-end tests against a live in-process server: interactive and
//! oracle sessions over real TCP, error statuses, backpressure, and
//! restart-replay on the same WAL.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use muse_obs::{Json, Metrics};
use muse_serve::{client, proto, Client, Server, ServerConfig};

/// Bind + run a server on an ephemeral port; returns (client, server,
/// join handle). Callers must `client.shutdown()` and join.
fn spawn(cfg: ServerConfig) -> (Client, Arc<Server>, thread::JoinHandle<()>) {
    let server = Arc::new(Server::bind(cfg, Metrics::enabled()).expect("bind"));
    let addr = server.local_addr().expect("local addr").to_string();
    let runner = Arc::clone(&server);
    let handle = thread::spawn(move || runner.run().expect("server run"));
    client::wait_ready(&addr, Duration::from_secs(10)).expect("ready");
    (Client::new(addr), server, handle)
}

fn small_cfg(scenario: &str) -> Json {
    Json::obj(vec![
        ("scenario", Json::str(scenario)),
        ("use_instance", Json::Bool(false)),
    ])
}

/// Default interactive policy: scenario 2, first alternative, inner join.
fn default_answer(question: &Json) -> Json {
    match question.get("kind").and_then(Json::as_str) {
        Some("scenario") => Json::obj(vec![
            ("kind", Json::str("scenario")),
            ("pick", Json::Int(2)),
        ]),
        Some("choices") => {
            let n = question
                .get("choices")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            Json::obj(vec![
                ("kind", Json::str("choices")),
                (
                    "picks",
                    Json::Arr((0..n).map(|_| Json::Arr(vec![Json::Int(0)])).collect()),
                ),
            ])
        }
        _ => Json::obj(vec![
            ("kind", Json::str("join")),
            ("pick", Json::str("inner")),
        ]),
    }
}

/// Drive an open session to done with `default_answer`; returns the
/// transcript of question payloads seen along the way.
fn drive(client: &Client, id: u64, mut state: Json) -> Vec<Json> {
    let mut transcript = Vec::new();
    loop {
        match state.get("status").and_then(Json::as_str) {
            Some("done") => return transcript,
            Some("open") => {}
            other => panic!("unexpected status {other:?} in {}", state.render()),
        }
        let question = state
            .get("question")
            .expect("open without question")
            .clone();
        let answer = default_answer(&question);
        transcript.push(question);
        state = client.answer(id, &answer).expect("answer");
        assert_eq!(
            state.get("accepted"),
            Some(&Json::Bool(true)),
            "{}",
            state.render()
        );
    }
}

#[test]
fn interactive_session_matches_offline_stepper() {
    let (client, server, handle) = spawn(ServerConfig::default());

    let created = client.create_session(&small_cfg("DBLP")).expect("create");
    let id = created.get("session").and_then(Json::as_int).unwrap() as u64;
    assert_eq!(created.get("status").and_then(Json::as_str), Some("open"));

    let transcript = drive(&client, id, created);
    assert!(!transcript.is_empty());

    let mut report = client.report(id).expect("report");
    proto::strip_volatile(&mut report);

    // The offline reference: same scenario, same stepper, same answers.
    let cfg = muse_serve::SessionCfg {
        scenario: "DBLP".to_owned(),
        use_instance: false,
        ..muse_serve::SessionCfg::default()
    };
    let ctx = muse_serve::store::SessionCtx::build(&cfg).unwrap();
    let session = muse_wizard::Session::new(
        &ctx.scenario.source_schema,
        &ctx.scenario.target_schema,
        &ctx.scenario.source_constraints,
    )
    .with_real_example_budget(None);
    let mut answers = Vec::new();
    let offline = loop {
        match session.step(&ctx.mappings, &answers).unwrap() {
            muse_wizard::Step::Ask { seq, question } => {
                let wire = proto::question_json(
                    seq,
                    &question,
                    &ctx.scenario.source_schema,
                    &ctx.scenario.target_schema,
                );
                assert_eq!(wire.render(), transcript[seq].render(), "question {seq}");
                answers.push(proto::answer_from_json(&default_answer(&wire)).unwrap());
            }
            muse_wizard::Step::Done(report) => break report,
        }
    };
    let offline_stable = proto::report_stable_json(&offline);
    assert_eq!(
        report
            .get("result")
            .and_then(|r| r.get("report"))
            .map(Json::render),
        Some(offline_stable.render()),
        "HTTP report != offline report"
    );

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
    assert_eq!(server.store().len(), 1);
}

#[test]
fn oracle_session_completes_on_create() {
    let (client, _server, handle) = spawn(ServerConfig::default());

    let mut cfg = small_cfg("DBLP");
    if let Json::Obj(fields) = &mut cfg {
        fields.push(("strategy".to_owned(), Json::str("g2")));
    }
    let created = client.create_session(&cfg).expect("create");
    assert_eq!(created.get("status").and_then(Json::as_str), Some("done"));
    let id = created.get("session").and_then(Json::as_int).unwrap() as u64;

    let report = client.report(id).expect("report");
    let answers = report.get("answers").and_then(Json::as_int).unwrap();
    assert!(answers > 0, "oracle answered no questions");
    let total = report
        .get("result")
        .and_then(|r| r.get("report"))
        .and_then(|r| r.get("total_questions"))
        .and_then(Json::as_int)
        .unwrap();
    assert_eq!(answers, total);

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn protocol_errors_have_the_documented_statuses() {
    let (client, _server, handle) = spawn(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });

    // 404: unknown route and unknown session.
    assert!(client.request("GET", "/nope", None).unwrap().0 == 404);
    assert!(
        client
            .request("GET", "/sessions/99/question", None)
            .unwrap()
            .0
            == 404
    );
    // 405: wrong method on a known path.
    assert!(client.request("DELETE", "/healthz", None).unwrap().0 == 405);
    // 400: malformed create bodies.
    let (status, body) = client
        .request("POST", "/sessions", Some(&Json::obj(vec![])))
        .unwrap();
    assert_eq!(status, 400, "{}", body.render());
    let (status, _) = client
        .request(
            "POST",
            "/sessions",
            Some(&Json::obj(vec![("scenario", Json::str("NoSuch"))])),
        )
        .unwrap();
    assert_eq!(status, 400);

    let created = client.create_session(&small_cfg("DBLP")).expect("create");
    let id = created.get("session").and_then(Json::as_int).unwrap() as u64;

    // 400: a rejected answer leaves the session open on the same question.
    let bad = Json::obj(vec![
        ("kind", Json::str("join")),
        ("pick", Json::str("inner")),
    ]);
    let (status, _) = client
        .request("POST", &format!("/sessions/{id}/answer"), Some(&bad))
        .unwrap();
    assert_eq!(status, 400);
    let again = client.question(id).expect("question");
    assert_eq!(
        again.get("question").map(Json::render),
        created.get("question").map(Json::render),
        "rejected answer must not advance the session"
    );

    // 409: report on an open session.
    let (status, _) = client
        .request("GET", &format!("/sessions/{id}/report"), None)
        .unwrap();
    assert_eq!(status, 409);

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn deeply_nested_body_is_rejected_and_the_server_stays_up() {
    let (client, server, handle) = spawn(ServerConfig::default());
    let addr = server.local_addr().unwrap().to_string();

    // 100,000 unclosed `[`: a recursive parser without a depth limit
    // overflows its stack on this and aborts the whole process.
    let body = "[".repeat(100_000);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "POST /sessions HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    let health = client.healthz().expect("healthz after the deep body");
    assert_eq!(
        health.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        health.render()
    );
    assert_eq!(server.store().len(), 0);

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn capacity_overflow_is_shed_with_503() {
    let (client, server, handle) = spawn(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    client.create_session(&small_cfg("DBLP")).expect("create");

    let addr = server.local_addr().unwrap().to_string();
    let mut impatient = Client::new(addr);
    impatient.retries = 0;
    let (status, body) = impatient
        .request("POST", "/sessions", Some(&small_cfg("DBLP")))
        .unwrap();
    assert_eq!(status, 503, "{}", body.render());

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn restart_on_the_same_wal_replays_open_sessions() {
    let dir = std::env::temp_dir().join(format!("muse_serve_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("sessions.wal");

    let cfg = || ServerConfig {
        wal: Some(wal.clone()),
        ..ServerConfig::default()
    };

    // First life: open a session, answer one question, shut down.
    let (client, _server, handle) = spawn(cfg());
    let created = client.create_session(&small_cfg("DBLP")).expect("create");
    let id = created.get("session").and_then(Json::as_int).unwrap() as u64;
    let q0 = created.get("question").unwrap().render();
    let state = client
        .answer(id, &default_answer(created.get("question").unwrap()))
        .expect("answer");
    let q1 = state.get("question").expect("still open").render();
    assert_ne!(q0, q1);
    client.shutdown().expect("shutdown");
    handle.join().unwrap();

    // Second life: same WAL — the session resumes at question 1.
    let (client, server, handle) = spawn(cfg());
    assert_eq!(server.store().len(), 1);
    let resumed = client.question(id).expect("question");
    assert_eq!(resumed.get("status").and_then(Json::as_str), Some("open"));
    assert_eq!(
        resumed.get("question").map(Json::render),
        Some(q1.clone()),
        "replayed session must resume at its pre-shutdown question"
    );

    // Finish it over the restarted server and cross-check the metrics.
    let transcript = drive(&client, id, resumed);
    assert!(!transcript.is_empty());
    client.report(id).expect("report after replay");
    let metrics = client.metrics().expect("metrics");
    let replays = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.replays"))
        .and_then(Json::as_int);
    assert_eq!(replays, Some(1), "{}", metrics.render());

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL snapshots carry the session's materialized incremental-chase state;
/// a restart restores it warm (serve.delta_restores) and the resumed
/// session continues at the identical question.
#[test]
fn restart_restores_the_incremental_chase_state() {
    let dir = std::env::temp_dir().join(format!("muse_serve_delta_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("sessions.wal");

    let cfg = || ServerConfig {
        wal: Some(wal.clone()),
        // Snapshot after every answer so the delta blob is always current.
        snapshot_every: 1,
        ..ServerConfig::default()
    };

    // First life: Mondial (flat source queries — delta-eligible), one
    // answered question, then shutdown. The probe chases must have
    // materialized state into the session's store.
    let (client, server, handle) = spawn(cfg());
    let created = client
        .create_session(&small_cfg("Mondial"))
        .expect("create");
    let id = created.get("session").and_then(Json::as_int).unwrap() as u64;
    let state = client
        .answer(id, &default_answer(created.get("question").unwrap()))
        .expect("answer");
    let q1 = state.get("question").expect("still open").render();
    let entry = server.store().get(id).expect("entry");
    let materialized = entry.lock().unwrap().delta.len();
    assert!(materialized > 0, "Mondial probes must materialize state");
    drop(entry);
    client.shutdown().expect("shutdown");
    handle.join().unwrap();

    // Second life: the store comes back warm and the session resumes at
    // the same question.
    let (client, server, handle) = spawn(cfg());
    let entry = server.store().get(id).expect("replayed entry");
    assert_eq!(
        entry.lock().unwrap().delta.len(),
        materialized,
        "restored store must hold the snapshotted state"
    );
    drop(entry);
    let resumed = client.question(id).expect("question");
    assert_eq!(resumed.get("question").map(Json::render), Some(q1));
    let metrics = client.metrics().expect("metrics");
    let restores = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.delta_restores"))
        .and_then(Json::as_int);
    assert_eq!(restores, Some(1), "{}", metrics.render());

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
