//! `serve_bench` — load-test the session server (ISSUE 5, satellite 1).
//!
//! Spins an in-process `muse_serve::Server` on an ephemeral port with a
//! WAL, opens `MUSE_SERVE_SESSIONS` (default 64) interactive sessions so
//! they are all concurrently open, then drives every one to completion
//! over HTTP from `--threads` client workers. Connections are persistent
//! (keep-alive), so the cap counts *resident* connections — roughly the
//! client fan-out — and `503 + Retry-After` only appears as transient
//! soft backpressure, while any other failure is a hard failure and the
//! bench exits non-zero. Finally the server is drained and a second
//! server binds the same WAL, timing a replay that must restore every
//! completed session from its WAL snapshot without running a wizard.
//!
//! Invariants asserted every run: `serve.accepts <= serve.requests`
//! (keep-alive actually reuses connections), `serve.cache_hits > 0` (the
//! 64 identical sessions share probe work), `wizard.questions <=
//! serve.answers + serve.sessions_created` after the load phase (resident
//! sessions build one question per answer, none by replay), and on the
//! replayed server every completed session restores from its snapshot. With `MUSE_GATE=1`
//! (CI) the warm hot path is gated: after the load phase, one serial
//! client drives a fresh session on the quiet, cache-warm server, and the
//! p50 of its answer round-trips must stay under 5 ms. (The load phase's
//! own handle histogram deliberately oversubscribes the box, so it
//! measures queueing; the serial drive measures the hot path.)
//!
//! Two robustness phases ride along (ISSUE 9): a sticky `serve.wal.append`
//! IO fault is armed to count degraded-mode sheds and time the recovery
//! back to `healthy` after it clears, and one mid-file WAL byte is flipped
//! to time the salvage scan + atomic repair on the final log.
//!
//! `--json` merges a `serve` section (throughput, handle p50/p99, cache
//! and keep-alive counters, replay time, shed counts, salvage timing)
//! into `BENCH_baseline.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use muse_bench::baseline;
use muse_obs::{Json, Metrics};
use muse_serve::{client, Client, Server, ServerConfig};

const SCENARIO: &str = "DBLP";

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scripted designer: scenario 2, first alternative, inner join.
fn scripted_answer(question: &Json) -> Json {
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

fn main() {
    let sessions = env_usize("MUSE_SERVE_SESSIONS", 64);
    let client_threads = baseline::arg_threads().max(8).min(sessions.max(1));
    // Half as many server workers as clients. Under keep-alive the
    // connection cap bounds *resident* connections (parked ones included),
    // so it sits just above the client fan-out — shed only fires on
    // transient overlap while the poller reaps freshly-dropped clients.
    let server_threads = (client_threads / 2).max(2);
    let max_connections = client_threads + 4;
    let dir = std::env::temp_dir().join(format!("muse_serve_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let wal = dir.join("sessions.wal");

    let cfg = || ServerConfig {
        threads: server_threads,
        max_sessions: sessions * 2,
        max_connections,
        wal: Some(wal.clone()),
        // Fast probes so the degraded-mode phase measures recovery, not
        // the probe interval.
        recovery_probe_ms: 50,
        ..ServerConfig::default()
    };

    let server = Arc::new(Server::bind(cfg(), Metrics::enabled()).expect("bind"));
    let addr = server.local_addr().expect("local addr").to_string();
    let runner = Arc::clone(&server);
    let run_thread = std::thread::spawn(move || runner.run().expect("server run"));
    client::wait_ready(&addr, std::time::Duration::from_secs(10)).expect("ready");

    let create_body = Json::obj(vec![
        ("scenario", Json::str(SCENARIO)),
        ("use_instance", Json::Bool(false)),
    ]);

    // Phase 1: open every session before answering anything, so all of
    // them are concurrently resident and open.
    let t_open = Instant::now();
    let driver = Metrics::enabled();
    let ids: Vec<(u64, Json)> = muse_par::scope_map(sessions, client_threads, &driver, |_| {
        let http = mk_client(&addr);
        let state = http.create_session(&create_body).expect("create session");
        let id = state.get("session").and_then(Json::as_int).expect("id") as u64;
        (id, state)
    });
    let open_time = t_open.elapsed();
    let open_now = server.store().open_sessions();
    assert_eq!(
        open_now, sessions as u64,
        "expected every session concurrently open"
    );

    // Phase 2: drive all of them to completion in parallel.
    let questions_answered = AtomicU64::new(0);
    let hard_failures = AtomicU64::new(0);
    let t_drive = Instant::now();
    muse_par::scope_map(sessions, client_threads, &driver, |i| {
        let http = mk_client(&addr);
        let (id, mut state) = ids[i].clone();
        while state.get("status").and_then(Json::as_str) == Some("open") {
            let question = state.get("question").expect("open question");
            match http.answer(id, &scripted_answer(question)) {
                Ok(next) => {
                    questions_answered.fetch_add(1, Ordering::Relaxed);
                    state = next;
                }
                Err(e) => {
                    eprintln!("session {id}: hard failure: {e}");
                    hard_failures.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        if let Err(e) = http.report(id) {
            eprintln!("session {id}: report failed: {e}");
            hard_failures.fetch_add(1, Ordering::Relaxed);
        }
    });
    let drive_time = t_drive.elapsed();

    // Phase 2.5: warm hot-path latency. One serial client drives one more
    // session on the now-quiet, cache-warm server and times each answer
    // round-trip; the p50 of those is what the CI gate watches.
    let warm_http = mk_client(&addr);
    let mut warm_rtts_ms: Vec<f64> = Vec::new();
    let mut warm_state = warm_http.create_session(&create_body).expect("warm create");
    let warm_id = warm_state
        .get("session")
        .and_then(Json::as_int)
        .expect("warm id") as u64;
    while warm_state.get("status").and_then(Json::as_str) == Some("open") {
        let question = warm_state.get("question").expect("open question").clone();
        let t = Instant::now();
        warm_state = warm_http
            .answer(warm_id, &scripted_answer(&question))
            .expect("warm answer");
        warm_rtts_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    warm_http.report(warm_id).expect("warm report");
    warm_rtts_ms.sort_by(f64::total_cmp);
    let warm_p50_ms = warm_rtts_ms
        .get(warm_rtts_ms.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);
    // Load-phase sessions plus the warm one, all driven to completion.
    let total_sessions = sessions + 1;

    let answered = questions_answered.load(Ordering::Relaxed);
    let hard = hard_failures.load(Ordering::Relaxed);
    let requests = answered + 2 * sessions as u64; // + creates and reports
    let snapshot = server.metrics().snapshot();
    let rejects = snapshot.counter("serve.rejects");
    let accepts = snapshot.counter("serve.accepts");
    let server_requests = snapshot.counter("serve.requests");
    let cache_hits = snapshot.counter("serve.cache_hits");
    let cache_misses = snapshot.counter("serve.cache_misses");
    let keepalive_reuses = snapshot.counter("serve.keepalive_reuses");
    let snapshots_written = snapshot.counter("serve.snapshots");
    let compactions = snapshot.counter("serve.wal_compactions");
    let handle = mk_client(&addr)
        .metrics()
        .ok()
        .and_then(|m| m.get("serve").and_then(|s| s.get("handle")).cloned())
        .unwrap_or(Json::Null);
    // Keep-alive must actually hold connections across requests: accepts
    // count connections, requests count exchanges.
    assert!(
        accepts <= server_requests,
        "keep-alive broken: {accepts} accepts > {server_requests} requests"
    );
    // 64 identical sessions ask identical deterministic questions — the
    // cross-session probe memo must fire.
    assert!(
        cache_hits > 0,
        "probe cache never hit across {sessions} identical sessions"
    );
    assert!(
        snapshots_written > 0,
        "no WAL snapshots written across {sessions} sessions"
    );
    // Resident sessions: a create builds the first question and an answer
    // at most one more, so no rebuild or replay happened under load.
    let wizard_questions = snapshot.counter("wizard.questions");
    let answers_plus_sessions =
        snapshot.counter("serve.answers") + snapshot.counter("serve.sessions_created");
    assert!(
        wizard_questions <= answers_plus_sessions,
        "{wizard_questions} wizard questions built for {answers_plus_sessions} answers + sessions"
    );

    // Phase 2.75: degraded mode. A sticky WAL append fault trips the
    // health state machine; mutations are shed with 503 while the server
    // stays up, then the fault clears and the jittered recovery probe
    // restores `healthy` — the time from disarm to healthy is recorded.
    let sheds_before = server.metrics().snapshot().counter("serve.degraded_sheds");
    muse_fault::arm(muse_fault::parse_spec("serve.wal.append:iox*").expect("degraded fault spec"));
    let shed_http = {
        let mut c = Client::new(addr.clone());
        c.retries = 0; // surface every 503: this phase *counts* sheds
        c
    };
    let (status, _) = shed_http
        .request("POST", "/sessions", Some(&create_body))
        .expect("tripping create");
    assert_eq!(status, 503, "append fault must shed the mutation");
    const SHED_ATTEMPTS: u64 = 50;
    for _ in 0..SHED_ATTEMPTS {
        let (status, _) = shed_http
            .request("POST", "/sessions", Some(&create_body))
            .expect("shed create");
        assert_eq!(status, 503, "degraded server must shed mutations");
    }
    let degraded_state = shed_http
        .healthz()
        .expect("healthz while degraded")
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_owned();
    assert_eq!(degraded_state, "degraded");
    // Reads keep flowing while mutations shed.
    shed_http.metrics().expect("metrics while degraded");
    let degraded_sheds = server.metrics().snapshot().counter("serve.degraded_sheds") - sheds_before;
    assert!(degraded_sheds >= SHED_ATTEMPTS, "sheds not counted");

    muse_fault::disarm();
    let t_recover = Instant::now();
    loop {
        let state = shed_http.healthz().expect("healthz during recovery");
        if state.get("state").and_then(Json::as_str) == Some("healthy") {
            break;
        }
        assert!(
            t_recover.elapsed() < std::time::Duration::from_secs(30),
            "server never recovered after the fault cleared"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let recovery_time = t_recover.elapsed();

    mk_client(&addr).shutdown().expect("shutdown");
    run_thread.join().expect("server thread");

    // Phase 3: bind a fresh server on the same WAL and time the replay.
    // Every session finished, so every one has a current `done` snapshot:
    // the restart must restore all of them without running a wizard.
    let t_replay = Instant::now();
    let replayed = Server::bind(cfg(), Metrics::enabled()).expect("replay bind");
    let replay_time = t_replay.elapsed();
    assert_eq!(
        replayed.store().len(),
        total_sessions,
        "replay lost sessions"
    );
    assert_eq!(
        replayed.store().open_sessions(),
        0,
        "completed sessions replayed as open"
    );
    let replay_snapshot = replayed.metrics().snapshot();
    let snapshot_restores = replay_snapshot.counter("serve.snapshot_restores");
    assert_eq!(
        snapshot_restores,
        total_sessions as u64,
        "every completed session must restore from its snapshot \
         ({} wizard replays ran)",
        replay_snapshot.counter("serve.replays")
    );

    // Phase 4: salvage timing. Flip one payload byte mid-file in the
    // final WAL and time the salvage scan + atomic repair + quarantine.
    drop(replayed);
    let mut data = std::fs::read(&wal).expect("read wal");
    let mut bounds = Vec::new();
    let mut off = 0usize;
    while off + 8 <= data.len() {
        let len =
            u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]) as usize;
        let end = off + 8 + len;
        if end > data.len() {
            break;
        }
        bounds.push((off, end));
        off = end;
    }
    assert!(bounds.len() >= 3, "final WAL too small to corrupt mid-file");
    let (victim_start, victim_end) = bounds[bounds.len() / 2];
    data[victim_start + 9] ^= 0xFF;
    std::fs::write(&wal, &data).expect("corrupt wal");
    let t_salvage = Instant::now();
    let (_wal_handle, salvaged_records, salvage_report) =
        muse_serve::wal::Wal::open(&wal).expect("salvage open");
    let salvage_time = t_salvage.elapsed();
    assert!(!salvage_report.is_clean(), "corruption went unnoticed");
    assert_eq!(
        salvage_report.quarantined_bytes,
        (victim_end - victim_start) as u64,
        "exactly the corrupted frame is quarantined"
    );
    assert_eq!(
        salvaged_records.len(),
        bounds.len() - 1,
        "salvage must recover every other frame"
    );

    // CI regression gate (opt-in so unconstrained local runs don't flake):
    // the warm hot path must answer in single-digit milliseconds.
    if std::env::var_os("MUSE_GATE").is_some() {
        assert!(
            warm_p50_ms < 5.0,
            "warm serial answer p50 regressed: {warm_p50_ms:.3} ms >= 5 ms"
        );
    }

    let throughput = requests as f64 / drive_time.as_secs_f64().max(1e-9);
    println!("serve_bench: {SCENARIO} x{sessions}, {client_threads} client threads");
    println!(
        "  open     {sessions} sessions in {:.2}s (all concurrently open)",
        open_time.as_secs_f64()
    );
    println!(
        "  drive    {answered} answers in {:.2}s  ({throughput:.0} req/s, {rejects} soft 503s, {hard} hard failures)",
        drive_time.as_secs_f64()
    );
    println!("  handle   {}", handle.render());
    println!(
        "  warm     serial answer p50 {warm_p50_ms:.3} ms over {} round-trips",
        warm_rtts_ms.len()
    );
    println!(
        "  conns    {accepts} accepts / {server_requests} requests ({keepalive_reuses} keep-alive reuses)"
    );
    println!(
        "  cache    {cache_hits} probe hits / {cache_misses} misses; {snapshots_written} snapshots, {compactions} compactions"
    );
    println!(
        "  replay   {total_sessions} sessions in {:.2}s ({snapshot_restores} snapshot restores)",
        replay_time.as_secs_f64()
    );
    println!(
        "  degraded {degraded_sheds} mutations shed; healthy again {:.3}s after the fault cleared",
        recovery_time.as_secs_f64()
    );
    println!(
        "  salvage  {} frames around {} quarantined bytes in {:.4}s",
        salvaged_records.len(),
        salvage_report.quarantined_bytes,
        salvage_time.as_secs_f64()
    );

    if baseline::wants_json() {
        let section = Json::obj(vec![
            ("scenario", Json::str(SCENARIO)),
            ("sessions", Json::Int(sessions as i64)),
            ("client_threads", Json::Int(client_threads as i64)),
            ("server_threads", Json::Int(server_threads as i64)),
            ("max_connections", Json::Int(max_connections as i64)),
            ("open_time_s", Json::Num(open_time.as_secs_f64())),
            ("drive_time_s", Json::Num(drive_time.as_secs_f64())),
            ("requests", Json::Int(requests as i64)),
            ("questions_answered", Json::Int(answered as i64)),
            ("throughput_rps", Json::Num(throughput)),
            ("soft_rejects_503", Json::Int(rejects as i64)),
            ("hard_failures", Json::Int(hard as i64)),
            ("accepts", Json::Int(accepts as i64)),
            ("server_requests", Json::Int(server_requests as i64)),
            ("keepalive_reuses", Json::Int(keepalive_reuses as i64)),
            ("cache_hits", Json::Int(cache_hits as i64)),
            ("cache_misses", Json::Int(cache_misses as i64)),
            ("wizard_questions", Json::Int(wizard_questions as i64)),
            (
                "answers_plus_sessions",
                Json::Int(answers_plus_sessions as i64),
            ),
            ("snapshots", Json::Int(snapshots_written as i64)),
            ("wal_compactions", Json::Int(compactions as i64)),
            ("handle", handle),
            ("warm_p50_ms", Json::Num(warm_p50_ms)),
            ("replay_sessions", Json::Int(total_sessions as i64)),
            ("replay_time_s", Json::Num(replay_time.as_secs_f64())),
            ("snapshot_restores", Json::Int(snapshot_restores as i64)),
            ("degraded_sheds", Json::Int(degraded_sheds as i64)),
            (
                "degraded_recovery_s",
                Json::Num(recovery_time.as_secs_f64()),
            ),
            ("salvage_time_s", Json::Num(salvage_time.as_secs_f64())),
            (
                "salvaged_frames",
                Json::Int(salvage_report.salvaged_frames as i64),
            ),
            (
                "quarantined_bytes",
                Json::Int(salvage_report.quarantined_bytes as i64),
            ),
            ("server_metrics", snapshot.to_json()),
        ]);
        baseline::emit("serve", section);
    }

    let _ = std::fs::remove_dir_all(&dir);
    if hard > 0 {
        eprintln!("serve_bench: {hard} hard failure(s)");
        std::process::exit(1);
    }
}

fn mk_client(addr: &str) -> Client {
    let mut c = Client::new(addr.to_owned());
    // Backpressure is expected at this fan-out; retry 503s for a long time
    // rather than surfacing them as hard failures.
    c.retries = 600;
    c
}
