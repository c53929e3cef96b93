//! `serve-designers`: the shipped `muse serve` under closed-loop designers.
//!
//! The server runs as a child process with a fresh WAL and two workers.
//! One keep-alive designer connection (no think time) keeps a fixed set
//! of sessions open and answers them round-robin with a
//! seeded designer policy, a fixed number of answers per slot. A finished
//! session is read back with `GET .../report` and replaced by a new one of
//! the same kind. A run does this in two rounds, each on a fresh server
//! with slots of its own. At the end, every session's last served state (its
//! report if done, else its open question) must be byte-equal to an
//! offline `Session::step` reference replaying the same answers.
//!
//! The traced run adds an in-process re-drive of the first round's answer
//! sequence through the server's public pieces (`http`, `json`/`proto`,
//! `SessionEntry::advance`, `Wal::append`), each inside a span, to
//! attribute a served answer's time by layer from outside.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muse_chase::DeltaStore;
use muse_obs::{Json, Metrics, Snapshot, TimerStat};
use muse_serve::http::{self, Conn};
use muse_serve::proto;
use muse_serve::store::{SessionCfg, SessionCtx, SessionEntry, SessionStatus};
use muse_serve::wal::Wal;
use muse_serve::Client;
use muse_wizard::{ProbeCache, Session, Step};

use crate::designer::Policy;
use crate::layers::{snapshot_from_json, timeouts, wizard_layers, work_counts};
use crate::stats::{median, peak_rss_mb, profile, ratio, tail};
use crate::trace::Tracer;
use crate::{Args, Outcome, SETUP_SAMPLES};

/// Instance scale of every served session: `muse serve`'s default.
pub const SCALE: f64 = 0.05;
/// The sessions the designer keeps open, answered round-robin over one
/// connection. Each slot works on an instance of its own (its seed derived
/// from the workload seed, the round and the slot), so no two slots share
/// cached probes: when slots shared one instance, how often their random
/// answers coincided decided the cache's hit rate, and cache misses moved
/// by ±17% from seed to seed. Six open Mondial sessions of 160 answers stay
/// just below the point where replay thrashes the cache; seven crossed it
/// at a seed-dependent answer. Eight contexts fit the server's context
/// cache. One
/// connection gives the server a deterministic request order, so the
/// cache's hits and misses repeat exactly for a seed; with two, their
/// interleaving decided which replays thrashed, and the tail with it.
const SLOTS: [&str; 8] = [
    "Mondial", "Mondial", "DBLP", "Mondial", "Mondial", "Mondial", "DBLP", "Mondial",
];
/// Seconds of `--seconds` per answer of one slot: a 20 s run gives each
/// slot 160 answers, 1,280 a round and 2,560 in all.
const SLOT_ANSWER_S: f64 = 20.0 / 160.0;
/// The tail percentile this workload is sized for.
const TAIL_P: f64 = 99.0;
/// Rounds per run. Each round drives a fresh server, with a fresh WAL and
/// cache, through the same number of answers on slots of its own. Two
/// rounds give the tail twice the samples and average twice as many
/// sessions, where one longer round would push the sessions past the
/// point where replay thrashes the cache.
const ROUNDS: usize = 2;

/// A slot's context: scenario and instance seed.
type Slot = (&'static str, u64);

/// The slots of one round with their instance seeds.
fn slots(seed: u64, round: usize) -> Vec<Slot> {
    SLOTS
        .iter()
        .enumerate()
        // 32 bits: the wire format carries the seed as a non-negative integer.
        .map(|(i, s)| {
            (
                *s,
                crate::sub_seed(seed, (round * SLOTS.len() + i) as u64) >> 32,
            )
        })
        .collect()
}

/// Threads that check the sessions against their references once the
/// measured run is over.
const CHECK_THREADS: usize = 2;
/// `muse serve`'s default probe-cache capacity, mirrored by the re-drive.
const PROBE_CACHE_CAP: usize = 1024;
/// `muse serve`'s default snapshot cadence, mirrored by the re-drive.
const SNAPSHOT_EVERY: usize = 8;

/// A `muse serve` child process; killed and reaped on drop.
struct ServeChild {
    child: Child,
    addr: String,
}

impl ServeChild {
    fn spawn(muse: &Path, wal: &Path) -> ServeChild {
        let mut child = Command::new(muse)
            .args(["serve", "--port", "0", "--threads", "2", "--wal"])
            .arg(wal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", muse.display()));
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let mut server = ServeChild {
            child,
            addr: String::new(),
        };
        server.addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected `muse serve` banner: {line:?}"))
            .to_owned();
        muse_serve::client::wait_ready(&server.addr, Duration::from_secs(30))
            .expect("server ready");
        server
    }

    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        c.retries = 0; // a 503 is a failed operation, not something to wait out
        c
    }

    /// Drain via `POST /admin/shutdown` and reap; kill if it lingers.
    fn shutdown(mut self) {
        let _ = self.client().shutdown();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn session_cfg((scenario, seed): Slot) -> SessionCfg {
    SessionCfg {
        scenario: scenario.to_owned(),
        scale: SCALE,
        seed,
        use_instance: true,
        ..SessionCfg::default()
    }
}

/// One session as a designer drove it.
struct Driven {
    id: u64,
    slot: Slot,
    answers: Vec<Json>,
    /// The served report with its volatile `timing` stripped, once done.
    report: Option<String>,
    /// The open question when the run ended, if not done.
    question: Option<String>,
}

/// What the designer saw.
#[derive(Default)]
struct ConnLog {
    /// Answer round trips, ms.
    waits: Vec<f64>,
    /// Round trips of every request (creates, answers, reports), ms.
    all_rtts: Vec<f64>,
    attempted: u64,
    failed: u64,
    rejected: u64,
    sessions: Vec<Driven>,
    /// Every accepted answer in the order the server acknowledged it:
    /// session id, its slot, answer.
    order: Vec<(u64, Slot, Json)>,
}

impl ConnLog {
    /// Add a later round's log to this one. The acknowledged order stays
    /// this round's: session ids restart with every server.
    fn absorb(&mut self, other: ConnLog) {
        self.waits.extend(other.waits);
        self.all_rtts.extend(other.all_rtts);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.sessions.extend(other.sessions);
    }
}

/// Add `other`'s counters and timers into `into`.
fn add_snapshot(into: &mut Snapshot, other: Snapshot) {
    for (k, v) in other.counters {
        *into.counters.entry(k).or_insert(0) += v;
    }
    for (k, t) in other.timers {
        let sum = into
            .timers
            .entry(k)
            .or_insert(TimerStat { count: 0, nanos: 0 });
        sum.count += t.count;
        sum.nanos += t.nanos;
    }
}

/// Issue one request, timing it; `None` on anything but 200.
fn request(
    client: &Client,
    log: &mut ConnLog,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Option<Json> {
    log.attempted += 1;
    let t = Instant::now();
    let out = client.request(method, path, body);
    log.all_rtts.push(t.elapsed().as_secs_f64() * 1e3);
    match out {
        Ok((200, body)) => return Some(body),
        Ok((503, _)) => log.rejected += 1,
        Ok((status, body)) => eprintln!(
            "serve-designers: {method} {path}: HTTP {status}: {}",
            body.render()
        ),
        Err(e) => eprintln!("serve-designers: {method} {path}: {e}"),
    }
    log.failed += 1;
    None
}

/// Create a session; returns its index in `log.sessions` and its first
/// question.
fn open(client: &Client, log: &mut ConnLog, slot: Slot) -> Option<(usize, Json)> {
    let state = request(
        client,
        log,
        "POST",
        "/sessions",
        Some(&session_cfg(slot).to_json()),
    )?;
    let id = state.get("session").and_then(Json::as_int)? as u64;
    log.sessions.push(Driven {
        id,
        slot,
        answers: Vec::new(),
        report: None,
        question: None,
    });
    Some((log.sessions.len() - 1, state.get("question").cloned()?))
}

/// A closed-loop designer connection: answer `SLOTS` round-robin until
/// each slot has had `answers` answers accepted, replacing every session
/// that finishes. Gives up (counting what is left as failed) only if
/// the server stops making progress before `give_up`.
fn designer_connection(
    server: &ServeChild,
    seed: u64,
    round: usize,
    answers: usize,
    give_up: Duration,
) -> ConnLog {
    let client = server.client();
    let mut policy = Policy::new(seed.wrapping_add(round as u64));
    let mut log = ConnLog::default();
    let t0 = Instant::now();
    let mut slots: Vec<(usize, Option<(usize, Json)>)> = slots(seed, round)
        .into_iter()
        .map(|slot| (answers, open(&client, &mut log, slot)))
        .collect();
    while slots.iter().any(|(left, live)| *left > 0 && live.is_some()) && t0.elapsed() < give_up {
        for (left, live) in slots.iter_mut() {
            if *left == 0 {
                continue;
            }
            let Some((idx, question)) = live.take() else {
                continue;
            };
            let (id, slot) = (log.sessions[idx].id, log.sessions[idx].slot);
            let answer = policy.answer(&question);
            let t = Instant::now();
            let Some(reply) = request(
                &client,
                &mut log,
                "POST",
                &format!("/sessions/{id}/answer"),
                Some(&answer),
            ) else {
                // Rejected or failed: the same question comes round again.
                *live = Some((idx, question));
                continue;
            };
            log.waits.push(t.elapsed().as_secs_f64() * 1e3);
            crate::calib::tick();
            *left -= 1;
            log.order.push((id, slot, answer.clone()));
            log.sessions[idx].answers.push(answer);
            if let Some(next) = reply.get("question") {
                *live = Some((idx, next.clone()));
                continue;
            }
            if let Some(mut report) = request(
                &client,
                &mut log,
                "GET",
                &format!("/sessions/{id}/report"),
                None,
            ) {
                proto::strip_volatile(&mut report);
                log.sessions[idx].report = report
                    .get("result")
                    .and_then(|r| r.get("report"))
                    .map(Json::render);
            }
            if *left > 0 {
                *live = open(&client, &mut log, slot);
            }
        }
    }
    let unanswered: usize = slots.iter().map(|(left, _)| left).sum();
    if unanswered > 0 {
        eprintln!("serve-designers: gave up with {unanswered} answers left");
        log.failed += unanswered as u64;
    }
    for (idx, question) in slots.into_iter().filter_map(|(_, live)| live) {
        log.sessions[idx].question = Some(question.render());
    }
    log
}

/// The offline reference of a session: `Session::step` over the same
/// answers with no probe cache and a fresh `DeltaStore`, rendered like the
/// server renders it: the report once done, else the open question.
fn reference(ctx: &SessionCtx, answers: &[Json]) -> Result<String, String> {
    let answers = answers
        .iter()
        .map(proto::answer_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let s = &ctx.scenario;
    let store = DeltaStore::new();
    let mut session = Session::new(&s.source_schema, &s.target_schema, &s.source_constraints)
        .with_real_example_budget(None)
        .with_delta(&store);
    if let Some(inst) = &ctx.instance {
        session = session.with_instance(inst);
    }
    Ok(
        match session
            .step(&ctx.mappings, &answers)
            .map_err(|e| e.to_string())?
        {
            Step::Done(report) => proto::report_stable_json(&report).render(),
            Step::Ask { seq, question } => {
                proto::question_json(seq, &question, &s.source_schema, &s.target_schema).render()
            }
        },
    )
}

/// A session's last served state against its offline reference.
fn verdict(ctxs: &BTreeMap<Slot, Arc<SessionCtx>>, d: &Driven) -> Result<(), String> {
    let served = d.report.as_ref().or(d.question.as_ref());
    match (served, reference(&ctxs[&d.slot], &d.answers)) {
        (None, _) => Err("no report and no open question".to_owned()),
        (Some(_), Err(e)) => Err(e),
        (Some(served), Ok(expect)) if *served == expect => Ok(()),
        (Some(_), Ok(_)) => Err("differs from the offline Session::step reference".to_owned()),
    }
}

/// Every session's [`verdict`], in order, computed on `CHECK_THREADS`
/// threads once the measured run is over (thread `t` takes every
/// `CHECK_THREADS`-th session from `t`, so Mondial and DBLP sessions mix).
fn check(ctxs: &BTreeMap<Slot, Arc<SessionCtx>>, sessions: &[Driven]) -> Vec<Result<(), String>> {
    let mut verdicts: Vec<(usize, Result<(), String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    (t..sessions.len())
                        .step_by(CHECK_THREADS)
                        .map(|i| (i, verdict(ctxs, &sessions[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference check thread"))
            .collect()
    });
    verdicts.sort_by_key(|(i, _)| *i);
    verdicts.into_iter().map(|(_, v)| v).collect()
}

/// Spawn-to-ready and first-create-per-context timings of fresh servers,
/// each paired with a kernel time taken right after it.
fn setup_samples(args: &Args, muse: &Path) -> (Vec<(f64, f64)>, Vec<f64>) {
    let mut totals = Vec::new();
    let mut ready = Vec::new();
    for i in 0..SETUP_SAMPLES {
        let wal = args.workdir.join(format!("setup-{i}.wal"));
        let t = Instant::now();
        let server = ServeChild::spawn(muse, &wal);
        ready.push(t.elapsed().as_secs_f64() * 1e3);
        let client = server.client();
        for slot in slots(args.seed, 0) {
            client
                .create_session(&session_cfg(slot).to_json())
                .expect("set-up session create");
        }
        let secs = t.elapsed().as_secs_f64();
        server.shutdown();
        totals.push((secs, crate::calib::probe()));
    }
    (totals, ready)
}

pub fn run(args: &Args) -> Outcome {
    let muse = args
        .muse
        .clone()
        .expect("serve-designers needs --muse <path to the muse binary>");
    std::fs::create_dir_all(&args.workdir).expect("create the work directory");
    crate::calib::relay();
    let (setup_totals, spawn_ready) = setup_samples(args, &muse);

    let answers = crate::work_units(args.seconds, SLOT_ANSWER_S);
    let give_up = Duration::from_secs_f64(6.0 * args.seconds);
    let mut log = ConnLog::default();
    let mut snap = Snapshot::default();
    let (mut elapsed, mut rss) = (0.0, 0.0f64);
    for round in 0..ROUNDS {
        let wal = args.workdir.join(format!("sessions-{round}.wal"));
        let server = ServeChild::spawn(&muse, &wal);
        let t0 = Instant::now();
        let round_log = designer_connection(&server, args.seed, round, answers, give_up);
        elapsed += t0.elapsed().as_secs_f64();
        let live = server.client().metrics().expect("GET /metrics");
        rss = rss.max(peak_rss_mb(Some(server.child.id())));
        server.shutdown();
        add_snapshot(
            &mut snap,
            snapshot_from_json(live.get("metrics").unwrap_or(&Json::Null)),
        );
        if round == 0 {
            log = round_log;
        } else {
            log.absorb(round_log);
        }
    }
    crate::calib::stop_relay();

    let (waits, all_rtts) = (&log.waits, &log.all_rtts);
    let (mut attempted, mut failed) = (log.attempted, log.failed);

    // Correctness: every session's last served state equals its reference.
    let ctxs: BTreeMap<Slot, Arc<SessionCtx>> = (0..ROUNDS)
        .flat_map(|round| slots(args.seed, round))
        .map(|slot| {
            let ctx = SessionCtx::build(&session_cfg(slot)).expect("offline context");
            (slot, Arc::new(ctx))
        })
        .collect();
    let sessions = log.sessions.len();
    let done = log.sessions.iter().filter(|d| d.report.is_some()).count();
    for (d, verdict) in log.sessions.iter().zip(check(&ctxs, &log.sessions)) {
        if let Err(e) = verdict {
            eprintln!(
                "serve-designers: FAILED session {} ({}): {e}",
                d.id, d.slot.0
            );
            failed += 1;
        }
    }
    if timeouts(&snap) > 0 {
        eprintln!(
            "serve-designers: FAILED wall-clock timeouts leaked into the server's example search"
        );
        failed += 1;
    }

    let t = tail(waits, TAIL_P);
    let answers = snap.counter("serve.answers") as f64;
    println!(
        "serve-designers: scale {SCALE}, seed {}, {ROUNDS} rounds of one connection x {SLOTS:?}: {} answers in {elapsed:.2}s, {sessions} sessions ({done} done), {} cache misses; tail p{} with {} samples beyond",
        args.seed,
        waits.len(),
        snap.counter("serve.cache_misses"),
        t.percentile,
        t.beyond
    );
    println!("answer round trips (ms), {}", profile(waits));
    let mut m: Vec<(&'static str, f64)> = vec![
        ("wait_p50_ms", median(waits)),
        ("wait_tail_ms", t.value),
        ("throughput_per_s", waits.len() as f64 / elapsed),
        ("setup_s", crate::calib::setup_s(&setup_totals)),
        ("peak_rss_mb", rss),
    ];
    crate::calib::scale_by_run(&mut m);
    if args.trace {
        let c = |k: &str| snap.counter(k) as f64;
        let handle = snap.timer("serve.handle_time");
        let mean_rtt = all_rtts.iter().sum::<f64>() / all_rtts.len().max(1) as f64;
        m.extend(wizard_layers(&snap, c("wizard.questions")));
        m.extend(work_counts(&snap, "serve.cache_misses"));
        m.extend([
            (
                "serve.wal.bytes_per_answer",
                ratio(c("serve.wal_bytes"), answers),
            ),
            ("serve.wal.compactions", c("serve.wal_compactions")),
            (
                "serve.queue_ms",
                mean_rtt - ratio(handle.nanos as f64 / 1e6, handle.count as f64),
            ),
            (
                "serve.reject_share",
                ratio(log.rejected as f64, all_rtts.len() as f64),
            ),
            (
                "serve.keepalive_reuse_ratio",
                ratio(c("serve.keepalive_reuses"), c("serve.requests")),
            ),
            (
                "wizard.questions_per_answer",
                ratio(c("wizard.questions"), answers),
            ),
            (
                "wizard.cache.hit_ratio",
                ratio(
                    c("serve.cache_hits"),
                    c("serve.cache_hits") + c("serve.cache_misses"),
                ),
            ),
            (
                "wizard.cache.misses_per_answer",
                ratio(c("serve.cache_misses"), answers),
            ),
            ("setup.spawn_ready_ms", median(&spawn_ready)),
        ]);
        let (layers, redriven, redrive_failed) = redrive(args, &ctxs, &log.order);
        attempted += redriven;
        failed += redrive_failed;
        m.extend(layers);
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}

/// The request bytes the bundled client sends for one answer.
fn request_bytes(id: u64, answer: &Json) -> Vec<u8> {
    let body = answer.render();
    format!(
        "POST /sessions/{id}/answer HTTP/1.1\r\nHost: musebench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// In-process state of the re-drive: one server's worth of sessions.
struct Redrive<'a> {
    ctxs: &'a BTreeMap<Slot, Arc<SessionCtx>>,
    metrics: Metrics,
    cache: ProbeCache,
    wal: Wal,
    entries: BTreeMap<u64, SessionEntry>,
    appends: u64,
}

impl Redrive<'_> {
    /// Create the session on first sight, stepping it to its first question.
    fn ensure(&mut self, id: u64, slot: Slot) {
        if !self.entries.contains_key(&id) {
            let cfg = session_cfg(slot);
            let mut entry = SessionEntry {
                id,
                probe_ctx: cfg.ctx_key(),
                cfg,
                ctx: Arc::clone(&self.ctxs[&slot]),
                answers: Vec::new(),
                status: SessionStatus::Failed {
                    error: "not stepped yet".into(),
                },
                panics: 0,
                delta: Arc::new(DeltaStore::new()),
            };
            entry
                .advance(&self.metrics, Some(&self.cache))
                .expect("first question");
            self.entries.insert(id, entry);
        }
    }

    /// One served answer, as `POST /sessions/{id}/answer` handles it.
    fn answer(&mut self, tr: Option<&Tracer>, conn: &mut Conn, id: u64) -> bool {
        let span = |name: &'static str, f: &mut dyn FnMut()| match tr {
            Some(t) => t.span(name, f),
            None => f(),
        };
        let mut request = None;
        span("serve.http", &mut || {
            request = http::read_request(conn).ok().flatten()
        });
        let Some(request) = request else {
            return false;
        };
        let mut answer = None;
        span("serve.json", &mut || {
            answer = std::str::from_utf8(&request.body)
                .ok()
                .and_then(|t| Json::parse(t).ok())
                .and_then(|j| proto::answer_from_json(&j).ok());
        });
        let Some(answer) = answer else {
            return false;
        };
        let entry = self.entries.get_mut(&id).expect("entry exists");
        entry.answers.push(answer.clone());
        let mut stepped = false;
        span("serve.step", &mut || {
            stepped = entry.advance(&self.metrics, Some(&self.cache)).is_ok()
        });
        let mut records = Vec::new();
        span("serve.json", &mut || {
            records.push(Json::obj(vec![
                ("rec", Json::str("answer")),
                ("session", Json::Int(id as i64)),
                ("answer", proto::answer_to_json(&answer)),
            ]));
            let due = match &entry.status {
                SessionStatus::Open { question, .. }
                    if entry.answers.len().is_multiple_of(SNAPSHOT_EVERY) =>
                {
                    Some(("open", question.clone()))
                }
                SessionStatus::Done { report } => Some(("done", report.clone())),
                _ => None,
            };
            if let Some((state, payload)) = due {
                records.push(Json::obj(vec![
                    ("rec", Json::str("snapshot")),
                    ("session", Json::Int(id as i64)),
                    ("answers", Json::Int(entry.answers.len() as i64)),
                    ("state", Json::str(state)),
                    ("payload", payload),
                    ("delta", entry.delta.export_json()),
                ]));
            }
        });
        let mut appended = true;
        span("serve.wal", &mut || {
            for r in &records {
                appended &= self.wal.append(r).is_ok();
            }
        });
        self.appends += records.len() as u64;
        let mut body = Json::Null;
        span("serve.json", &mut || {
            let mut fields = vec![
                ("session", Json::Int(id as i64)),
                ("accepted", Json::Bool(true)),
            ];
            match &entry.status {
                SessionStatus::Open { question, .. } => {
                    fields.push(("status", Json::str("open")));
                    fields.push(("question", question.clone()));
                }
                _ => fields.push(("status", Json::str("done"))),
            }
            body = Json::obj(fields);
        });
        let mut bytes = Vec::new();
        span("serve.http", &mut || {
            bytes = http::render_response(200, &[], &body, false)
        });
        stepped && appended && !bytes.is_empty()
    }
}

/// Re-drive the recorded answers in-process, untraced then traced, over a
/// prefix that fits in a quarter of `--seconds` each. Returns the layer
/// metrics, the answers re-driven and how many of them failed.
fn redrive(
    args: &Args,
    ctxs: &BTreeMap<Slot, Arc<SessionCtx>>,
    sequence: &[(u64, Slot, Json)],
) -> (Vec<(&'static str, f64)>, u64, u64) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let mut client = TcpStream::connect(listener.local_addr().expect("listener address"))
        .expect("loopback connect");
    let mut conn = Conn::new(listener.accept().expect("loopback accept").0);
    let budget = Duration::from_secs_f64(args.seconds / 4.0);
    let mut prefix = sequence.len();
    let mut per_answer: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let tracer = Tracer::new();
    let mut failed = 0u64;
    for (pass, traced) in [false, true].into_iter().enumerate() {
        let wal_path: PathBuf = args.workdir.join(format!("redrive-{pass}.wal"));
        let _ = std::fs::remove_file(&wal_path);
        let mut r = Redrive {
            ctxs,
            metrics: Metrics::enabled(),
            cache: ProbeCache::new(PROBE_CACHE_CAP)
                .with_metric_keys("serve.cache_hits", "serve.cache_misses"),
            wal: Wal::open(&wal_path).expect("re-drive WAL").0,
            entries: BTreeMap::new(),
            appends: 0,
        };
        let t0 = Instant::now();
        for (i, (id, slot, answer)) in sequence.iter().take(prefix).enumerate() {
            if !traced && t0.elapsed() > budget {
                prefix = i;
                break;
            }
            r.ensure(*id, *slot);
            client
                .write_all(&request_bytes(*id, answer))
                .expect("loopback write");
            let t = Instant::now();
            let ok = if traced {
                tracer.op("answer", || r.answer(Some(&tracer), &mut conn, *id))
            } else {
                r.answer(None, &mut conn, *id)
            };
            per_answer[pass].push(t.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(!ok);
        }
        if traced {
            let b = tracer.breakdown("answer");
            println!(
                "{}",
                b.render(
                    &format!(
                        "one served answer (in-process re-drive of {prefix} recorded answers)"
                    ),
                    "answer"
                )
            );
            let n = b.ops as f64;
            let (untraced, traced_p50) = (median(&per_answer[0]), median(&per_answer[1]));
            let layers = vec![
                (
                    "serve.http.us_per_request",
                    ratio(b.self_ms("serve.http") * 1e3, n),
                ),
                (
                    "serve.json.us_per_request",
                    ratio(b.self_ms("serve.json") * 1e3, n),
                ),
                (
                    "serve.wal.us_per_append",
                    ratio(b.self_ms("serve.wal") * 1e3, r.appends as f64),
                ),
                (
                    "serve.step.ms_per_answer",
                    ratio(b.self_ms("serve.step"), n),
                ),
                (
                    "trace.overhead_pct",
                    100.0 * (traced_p50 - untraced) / untraced,
                ),
                ("trace.unattributed_pct", b.unattributed_pct("answer")),
            ];
            let _ = std::fs::remove_file(&wal_path);
            return (layers, 2 * prefix as u64, failed);
        }
        let _ = std::fs::remove_file(&wal_path);
    }
    unreachable!("the traced pass returns")
}
