//! Machine-speed calibration.
//!
//! The reference box (2 vCPU of a shared host) changes speed by up to
//! ~1.6x for minutes at a time: identical TPC-H exchanges took 51 ms in one
//! run and 82 ms a few minutes later, and a fixed CPU kernel slowed by
//! nearly the same factor (the ratio of the two stayed within ±5%). So every run times
//! a fixed kernel, [`probe`], between its operations, and reports its
//! end-to-end timings scaled to the speed at which the kernel takes
//! [`REFERENCE_MS`]: `ms at reference speed = measured ms x REFERENCE_MS /
//! median probe ms`. The kernel is the benchmark's own code, so a change to
//! the program moves the workload's times and not the kernel's; the raw
//! figures and the factor are printed next to the scaled ones.
//!
//! A served answer is a round trip: the client wakes a server thread,
//! which computes and wakes the client again. On a busy host those
//! wake-ups slow down along with the compute, so a kernel timed in the
//! client alone under-corrected: raw answer throughput fell by 1.75x while
//! that kernel slowed by 1.19x. [`relay`] therefore runs the kernel on a
//! helper thread and times the round trip to it, the same shape as an
//! answer.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel time that scaled timings are expressed against: near the
/// kernel's median on the reference box (1.6 to 2.7 ms across its states).
pub const REFERENCE_MS: f64 = 2.0;
/// Work between two probes: [`tick`] probes once this much time has passed
/// since the previous probe ended.
const CADENCE: Duration = Duration::from_millis(40);

/// The helper thread and its two channels: kernel seeds out, checksums
/// back.
struct Relay {
    to: Sender<u64>,
    from: Receiver<u64>,
    worker: JoinHandle<()>,
}

struct Meter {
    samples: Vec<f64>,
    last: Option<Instant>,
    relay: Option<Relay>,
}

static METER: Mutex<Meter> = Mutex::new(Meter {
    samples: Vec::new(),
    last: None,
    relay: None,
});

/// The calibration kernel: hashing, allocation, sorting and formatting, the
/// mix the program's layers spend their time on. Its working set (a few
/// hundred KiB) stays small, so it adds nothing to a run's peak memory.
/// Deterministic; returns a checksum so the work cannot be optimised away.
fn kernel(seed: u64) -> u64 {
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = seed | 1;
    for _ in 0..24_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        groups.entry(x % 8_000).or_default().push(x);
    }
    let mut sums: Vec<u64> = groups
        .values()
        .map(|v| v.iter().fold(0u64, |a, b| a.wrapping_add(*b)))
        .collect();
    sums.sort_unstable();
    let text: Vec<String> = sums.iter().take(2_000).map(u64::to_string).collect();
    text.iter().map(|s| s.len() as u64).sum::<u64>() ^ sums[sums.len() / 2]
}

/// From now on, run the kernel on a helper thread and time the round trip
/// to it, until [`stop_relay`].
pub fn relay() {
    let (to, work) = channel::<u64>();
    let (done, from) = channel();
    let worker = std::thread::spawn(move || {
        for n in work {
            if done.send(kernel(n)).is_err() {
                break;
            }
        }
    });
    METER.lock().expect("calibration meter").relay = Some(Relay { to, from, worker });
}

/// End the helper thread of [`relay`] and join it; later probes run inline.
pub fn stop_relay() {
    let relay = METER.lock().expect("calibration meter").relay.take();
    if let Some(Relay { to, from, worker }) = relay {
        drop((to, from));
        worker.join().expect("calibration thread");
    }
}

/// Time one kernel run now, record it and return it (ms).
pub fn probe() -> f64 {
    let mut meter = METER.lock().expect("calibration meter");
    let n = meter.samples.len() as u64;
    let t = Instant::now();
    match &meter.relay {
        None => {
            std::hint::black_box(kernel(std::hint::black_box(n)));
        }
        Some(r) => {
            r.to.send(n).expect("calibration thread alive");
            std::hint::black_box(r.from.recv().expect("calibration thread alive"));
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    meter.samples.push(ms);
    meter.last = Some(Instant::now());
    ms
}

/// One inline kernel time (ms), not recorded: the second of two runs, as
/// the first pays a fresh process's first-touch costs. A set-up sample
/// takes it right after its set-up, in its own process.
pub fn kernel_ms() -> f64 {
    std::hint::black_box(kernel(std::hint::black_box(1)));
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(2)));
    t.elapsed().as_secs_f64() * 1e3
}

/// `setup_s` at reference speed from set-up samples, each a time (s) paired
/// with a kernel time (ms) taken right after it in the same place: the
/// median of `s x REFERENCE_MS / kernel ms`. Set-up speed changes within
/// seconds (48 TPC-H instances took 85 to 146 ms in consecutive fresh
/// processes), so each sample gets its own factor. Prints the raw median.
pub fn setup_s(samples: &[(f64, f64)]) -> f64 {
    let raw: Vec<f64> = samples.iter().map(|(s, _)| *s).collect();
    let scaled: Vec<f64> = samples.iter().map(|(s, k)| s * REFERENCE_MS / k).collect();
    println!(
        "set-up: {} samples, raw median {:.6} s, scaled median {:.6} s",
        samples.len(),
        median(&raw),
        median(&scaled)
    );
    median(&scaled)
}

/// Probe if [`CADENCE`] has passed since the last probe. Called between
/// operations, outside every timed interval.
pub fn tick() {
    let due = METER
        .lock()
        .expect("calibration meter")
        .last
        .is_none_or(|t| t.elapsed() >= CADENCE);
    if due {
        probe();
    }
}

/// Median probe time of this run (ms) and the number of probes.
pub fn probe_ms() -> (f64, usize) {
    let meter = METER.lock().expect("calibration meter");
    (median(&meter.samples), meter.samples.len())
}

/// Scale a run's `wait_p50_ms` and `wait_tail_ms` by `REFERENCE_MS /
/// median probe ms` (and divide `throughput_per_s` by it), printing the
/// raw figures. For workloads whose operations are shorter than the
/// probe cadence, so one factor covers many of them.
pub fn scale_by_run(metrics: &mut [(&'static str, f64)]) {
    let (probe_ms, probes) = probe_ms();
    let factor = REFERENCE_MS / probe_ms;
    println!(
        "machine speed: median probe {probe_ms:.4} ms over {probes} probes, reference {REFERENCE_MS} ms: timings x {factor:.4}"
    );
    for (name, value) in metrics.iter_mut() {
        let scaled = match *name {
            "wait_p50_ms" | "wait_tail_ms" => *value * factor,
            "throughput_per_s" => *value / factor,
            _ => continue,
        };
        println!("  {name:<36} {value:>16.6} raw");
        *value = scaled;
    }
}

/// Each operation's time at reference speed, scaled by the kernel times
/// taken right around it: `probes[i]` follows `times[i]`, and operation
/// `i` is scaled by the median of probes `i - 1`, `i` and `i + 1`. For
/// workloads that probe after every operation: speed bursts lasting a few
/// operations then scale only the operations they slowed.
pub fn scale_each(times: &[f64], probes: &[f64]) -> Vec<f64> {
    (0..times.len())
        .map(|i| {
            let around = &probes[i.saturating_sub(1)..(i + 2).min(probes.len())];
            times[i] * REFERENCE_MS / median(around)
        })
        .collect()
}
