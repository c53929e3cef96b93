//! `musebench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! musebench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           [--muse <path to the muse binary>] [--workdir <dir>]
//! ```
//!
//! Workloads (see `WORKLOADS.md`): `serve-designers`, `design-mondial`,
//! `exchange-tpch`. Every run does the work that takes about `--seconds`
//! on the reference box (see [`work_units`]), checks the
//! outputs against an independent reference, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, from spans the benchmark records around its own
//! calls into each layer plus the program's `muse_obs` counters.
//!
//! `setup_s` is sampled in fresh processes: the benchmark re-runs itself as
//! `musebench setup-sample --workload <name> --seed <n>` several times and
//! reports the median of the cold samples.
//!
//! End-to-end timings are reported at reference speed: every run times a
//! fixed kernel between its operations and scales its times by the
//! kernel's times (see [`calib`]); the raw figures are printed too.

mod calib;
mod designer;
mod layers;
mod mondial;
mod serve;
mod stats;
mod tpch;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use muse_obs::Json;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("wait_p50_ms", "ms"),
    ("wait_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A workload that does
/// not exercise a layer reports 0 for it (`WORKLOADS.md` lists which apply).
const PER_LAYER: [(&str, &str); 44] = [
    ("serve.http.us_per_request", "us"),
    ("serve.json.us_per_request", "us"),
    ("serve.wal.us_per_append", "us"),
    ("serve.wal.bytes_per_answer", "bytes"),
    ("serve.wal.compactions", "count"),
    ("serve.step.ms_per_answer", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.reject_share", "ratio"),
    ("serve.keepalive_reuse_ratio", "ratio"),
    ("wizard.questions_per_answer", "ratio"),
    ("wizard.cache.hit_ratio", "ratio"),
    ("wizard.cache.misses_per_answer", "ratio"),
    ("wizard.question_ms", "ms"),
    ("wizard.museg.ms_per_grouping", "ms"),
    ("wizard.mused.ms_per_mapping", "ms"),
    ("wizard.example_ms", "ms"),
    ("wizard.real_example_ratio", "ratio"),
    ("query.steps_per_question", "count"),
    ("query.eval_ms", "ms"),
    ("query.index_hit_ratio", "ratio"),
    ("query.ms_per_mapping", "ms"),
    ("query.rows_per_mapping", "count"),
    ("chase.fire_ms_per_exchange", "ms"),
    ("chase.us_per_binding", "us"),
    ("chase.dedup_ratio", "ratio"),
    ("chase.steps_per_question", "count"),
    ("chase.delta.hit_ratio", "ratio"),
    ("chase.delta.rederived_per_question", "count"),
    ("chase.delta.fallback_ratio", "ratio"),
    ("iso.ms_per_check", "ms"),
    ("iso.fingerprint_reject_ratio", "ratio"),
    ("nr.target_tuples_per_exchange", "count"),
    ("nr.bytes_per_target_tuple", "bytes"),
    ("setup.instance_ms", "ms"),
    ("setup.mappings_ms", "ms"),
    ("setup.bound_ms", "ms"),
    ("setup.spawn_ready_ms", "ms"),
    ("work.query.steps", "count"),
    ("work.chase.steps", "count"),
    ("work.chase.rederived", "count"),
    ("work.wizard.questions", "count"),
    ("work.wizard.cache_misses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Fresh-process set-up samples per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 25;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The shipped `muse` binary (serve-designers spawns `muse serve`).
    pub muse: Option<PathBuf>,
    /// Scratch space for WALs; removed at exit.
    pub workdir: PathBuf,
    /// Which set-up sample a `setup-sample` process takes.
    pub sample: u64,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        muse: None,
        workdir: PathBuf::from(".bench_build/musebench-run"),
        sample: 0,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--muse" => args.muse = Some(PathBuf::from(value()?)),
            "--workdir" => args.workdir = PathBuf::from(value()?),
            "--sample" => args.sample = value()?.parse().map_err(|e| format!("--sample: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Units of work a run does: `seconds` of work at `unit_s` seconds per
/// unit on the reference box (2 vCPU, quiet), at least one. A run does a
/// fixed amount of work for a given `--seconds`, so two runs of a seed
/// time the same operations; on the reference box it measures for about
/// `--seconds`.
pub fn work_units(seconds: f64, unit_s: f64) -> usize {
    ((seconds / unit_s).round() as usize).max(1)
}

/// The `i`-th input seed derived from the workload seed (SplitMix64 step).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `setup-sample` in `SETUP_SAMPLES` fresh processes, one after the
/// other; each prints its set-up timings as one JSON line.
pub fn setup_samples(args: &Args) -> Vec<Json> {
    let exe = std::env::current_exe().expect("own executable path");
    (0..SETUP_SAMPLES)
        .map(|j| {
            let out = Command::new(&exe)
                .args([
                    "setup-sample",
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--sample", &j.to_string()])
                .output()
                .expect("spawn a set-up sample");
            assert!(
                out.status.success(),
                "set-up sample failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8_lossy(&out.stdout);
            Json::parse(text.trim()).expect("set-up sample prints JSON")
        })
        .collect()
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let sample_mode = argv.peek().map(String::as_str) == Some("setup-sample");
    if sample_mode {
        argv.next();
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("musebench: {e}");
            std::process::exit(2);
        }
    };
    if sample_mode {
        let mut sample = match args.workload.as_str() {
            "design-mondial" => mondial::setup_sample(args.seed, args.sample),
            "exchange-tpch" => tpch::setup_sample(args.seed),
            other => {
                eprintln!("musebench: no in-process set-up sample for `{other}`");
                std::process::exit(2);
            }
        };
        if let Json::Obj(fields) = &mut sample {
            fields.push(("kernel_ms".to_owned(), Json::Num(calib::kernel_ms())));
        }
        println!("{}", sample.render());
        return;
    }

    let outcome = match args.workload.as_str() {
        "serve-designers" => serve::run(&args),
        "design-mondial" => mondial::run(&args),
        "exchange-tpch" => tpch::run(&args),
        other => {
            eprintln!("musebench: unknown workload `{other}` (serve-designers, design-mondial, exchange-tpch)");
            std::process::exit(2);
        }
    };

    let measured: BTreeMap<&str, f64> = outcome.metrics.iter().copied().collect();
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in measured.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name)
                || (args.trace && END_TO_END.iter().any(|(n, _)| n == name)),
            "workload reported undeclared metric `{name}`"
        );
    }
    let metrics = declared
        .iter()
        .map(|(name, unit)| {
            let value = measured.get(name).copied().unwrap_or(0.0);
            println!("  {name:<36} {value:>16.6} {unit}");
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let _ = std::fs::remove_dir_all(&args.workdir);
    println!("{}", result.render());
}
