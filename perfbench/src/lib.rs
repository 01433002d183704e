//! The alerting service's end-to-end benchmark.
//!
//! One run plays one named [`Workload`] from a seed through the public
//! `System` API on a single thread: set-up from an empty system to
//! ready, then an open-loop schedule of rebuilds (standing for
//! independent publishers) replayed in segments, each followed by a
//! drain. Every delivery is judged by `gsa_bench::Oracle`.
//!
//! An untraced run ([`run`] with `trace = false`) reports what a user
//! sees: throughput, publish→mailbox latency, set-up, subscribe latency,
//! wire cost per event, memory and delivery exactness. Latency, wire
//! cost and memory are taken over the run's deterministic prefix, so
//! they repeat exactly per seed; throughput is scaled to a reference
//! machine speed (see [`report::reference_kernel`]).
//!
//! A traced run replays the prefix twice, plain and stepped by the
//! [`drive::Tracer`], asserts both deliver bit-identically, and reports
//! per-layer numbers: step time by node role, driver-call time, counter
//! deltas, and [`replay`]s of the run's inputs through each crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod replay;
pub mod report;
pub mod workload;

use drive::{Driver, Judgment, Signature};
use report::{json_num, json_str, median, metric, quantile_sorted, Metric};
use std::time::Instant;
pub use workload::{Inputs, Params, Scale, Workload};

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every delivery was exact (and, traced, identical to the plain run).
    pub correct: bool,
    /// Rebuild events disseminated.
    pub attempted: u64,
    /// Rebuild events with any wrong pair, plus refused or unmapped work.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Seed, environment and generated parameters, as one JSON object.
    pub provenance: String,
}

/// Runs `workload` at `scale` from `seed`, measuring at least `seconds`
/// of timed phase when untraced.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let params = workload.params(scale);
    let inputs = Inputs::generate(&params, seed);
    if trace {
        run_traced(workload, &params, &inputs, seed)
    } else {
        run_untraced(workload, &params, &inputs, seed, seconds)
    }
}

fn run_untraced(
    workload: Workload,
    params: &Params,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
) -> Outcome {
    // Wall-clock figures are scaled to the reference machine speed (see
    // `report::speed_scale`): each segment's rate by the kernel timed
    // around it, set-up and subscribe times, which spread over the run,
    // by the run's median kernel time. The raw figures go to the
    // provenance line.
    let mut setups = SetupTimes::default();
    let mut driver = setups.time(workload, params, inputs, seed);
    let mut clock = driver.clock(false);
    // The other set-ups run between the segments after the prefix, so
    // they spread over the run instead of one burst, and the peak memory
    // read at the end of the prefix holds one deployment. Each is freed
    // before the next; those the extra segments had no room for run after
    // the phase.
    let mut extra_setup = || {
        if setups.secs.len() < params.setup_reps {
            drop(setups.time(workload, params, inputs, seed));
        }
    };
    let signature = driver.run_phase(&mut clock, seconds, &mut extra_setup);
    for _ in 0..params.setup_reps {
        extra_setup();
    }
    driver.finish(&mut clock);
    let judged = Instant::now();
    let judgment = driver.judge();
    let oracle_s = judged.elapsed().as_secs_f64();

    let segments = &driver.segments;
    let mut rates = Vec::with_capacity(segments.len());
    let mut raw_rates = Vec::with_capacity(segments.len());
    for (j, seg) in segments.iter().enumerate() {
        let next = segments.get(j + 1);
        let after = next.map_or(driver.ref_after_s, |n| n.ref_s);
        let scale = report::speed_scale((seg.ref_s + after) / 2.0);
        // Churn calls count from the prefix only, so every run of a seed
        // mixes the same number of them with the set-up calls.
        if j < params.min_segments {
            let calls_end = next.map_or(driver.subscribe_us.len(), |n| n.first_call);
            setups
                .subscribe_us
                .extend_from_slice(&driver.subscribe_us[seg.first_call..calls_end]);
        }
        raw_rates.push(seg.events as f64 / seg.wall_s);
        rates.push(seg.events as f64 / (seg.wall_s * scale));
    }
    let mut kernel_s: Vec<f64> = segments.iter().map(|s| s.ref_s).collect();
    kernel_s.push(driver.ref_after_s);
    let run_scale = report::speed_scale(median(&kernel_s));
    let setup_raw = setups.secs;
    let setup_s: Vec<f64> = setup_raw.iter().map(|s| s * run_scale).collect();
    let mut subscribe_us = setups.subscribe_us;
    subscribe_us.sort_by(f64::total_cmp);
    let subscribe_raw_p50 = quantile_sorted(&subscribe_us, 0.50);

    let metrics = vec![
        metric("events_per_s", median(&rates), "1/s"),
        metric("delivery_p50_ms", signature.delay_ms(0.50), "ms"),
        metric("delivery_p99_ms", signature.delay_ms(0.99), "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("subscribe_p50_us", subscribe_raw_p50 * run_scale, "us"),
        metric(
            "subscribe_p99_us",
            quantile_sorted(&subscribe_us, 0.99) * run_scale,
            "us",
        ),
        metric("msgs_per_event", signature.msgs_per_event(), "count"),
        metric("bytes_per_event", signature.bytes_per_event(), "B"),
        metric("peak_rss_mb", driver.prefix_rss_mb, "MiB"),
        metric("exact_share", judgment.exact_share(), "share"),
    ];
    let samples = format!(
        "{{\"delivery\": {}, \"subscribe\": {}, \"segments\": {}, \"setups\": {}, \
         \"raw_events_per_s\": {}, \"raw_setup_s\": {}, \"raw_subscribe_p50_us\": {}, \
         \"reference_s\": {}, \
         \"timed_s\": {}, \"collect_s\": {}, \"oracle_s\": {}}}",
        signature.delays_us.len(),
        subscribe_us.len(),
        segments.len(),
        setup_s.len(),
        json_num(median(&raw_rates)),
        json_num(median(&setup_raw)),
        json_num(subscribe_raw_p50),
        json_num(median(&kernel_s)),
        json_num(segments.iter().map(|s| s.wall_s).sum()),
        json_num(driver.collect_s),
        json_num(oracle_s),
    );
    Outcome {
        correct: judgment.exact(),
        attempted: driver.schedule.len() as u64,
        failed: judgment.failed_events,
        metrics,
        provenance: provenance(
            workload, params, inputs, seed, false, &driver, &judgment, &samples,
        ),
    }
}

/// Set-up wall times and the duration of every `subscribe` call they
/// made.
#[derive(Default)]
struct SetupTimes {
    secs: Vec<f64>,
    subscribe_us: Vec<f64>,
}

impl SetupTimes {
    fn time<'a>(
        &mut self,
        workload: Workload,
        params: &'a Params,
        inputs: &'a Inputs,
        seed: u64,
    ) -> Driver<'a> {
        let (driver, secs) = Driver::setup(workload, params, inputs, seed);
        self.secs.push(secs);
        self.subscribe_us.extend_from_slice(&driver.subscribe_us);
        driver
    }
}

fn run_traced(workload: Workload, params: &Params, inputs: &Inputs, seed: u64) -> Outcome {
    let plain_signature: Signature = {
        let (mut plain, _) = Driver::setup(workload, params, inputs, seed);
        let mut clock = plain.clock(false);
        plain.run_phase(&mut clock, 0.0, &mut || {})
    };

    let (mut driver, _) = Driver::setup(workload, params, inputs, seed);
    let mut clock = driver.clock(true);
    let signature = driver.run_phase(&mut clock, 0.0, &mut || {});
    let tracer = clock.tracer().expect("traced clock").clone();
    let identical = signature == plain_signature;
    if !identical {
        eprintln!(
            "traced run diverged from the plain run: {} vs {} events, {:?} vs {:?}",
            signature.events, plain_signature.events, signature.counters, plain_signature.counters
        );
    }
    driver.finish(&mut clock);
    let judgment = driver.judge();

    let c = &signature.counters;
    let [gds_steps, server_steps, timer_steps] = tracer.steps;
    let [gds_busy, server_busy, timer_busy] = tracer.busy;
    let per_step = |busy: f64, steps: u64| busy * 1e6 / steps.max(1) as f64;
    let traced_wall: f64 =
        driver.segments.iter().map(|s| s.wall_s).sum::<f64>() + tracer.collect.secs;
    let pruned = c.get("gds.pruned_edges") as f64;
    let forwarded = (c.get("net.delivered") - c.get("net.acks").min(c.get("net.delivered"))) as f64;
    let skip = c.get("core.probe_skip") as f64;
    let pass = c.get("core.probe_pass") as f64;
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    let mut metrics = vec![
        metric("simnet.steps.gds", gds_steps as f64, "count"),
        metric("simnet.steps.server", server_steps as f64, "count"),
        metric("simnet.steps.timer", timer_steps as f64, "count"),
        metric("simnet.busy_s.gds", gds_busy, "s"),
        metric("simnet.busy_s.server", server_busy, "s"),
        metric("simnet.busy_s.timer", timer_busy, "s"),
        metric("net.sent", c.get("net.sent") as f64, "count"),
        metric("net.delivered", c.get("net.delivered") as f64, "count"),
        metric("net.dropped", c.get("net.dropped") as f64, "count"),
        metric("net.retransmits", c.get("net.retransmits") as f64, "count"),
        metric("net.frames", c.get("net.frames") as f64, "count"),
        metric("net.bytes", c.get("net.bytes") as f64, "B"),
        metric("gds.busy_s", gds_busy, "s"),
        metric("gds.us_per_step", per_step(gds_busy, gds_steps), "us"),
        metric("gds.pruned_edges", pruned, "count"),
        metric(
            "gds.prune_ratio",
            ratio(pruned, pruned + forwarded),
            "share",
        ),
        metric(
            "gds.rendezvous_confined",
            c.get("gds.rendezvous_confined") as f64,
            "count",
        ),
        metric(
            "gds.summary_updates",
            c.get("gds.summary_updates") as f64,
            "count",
        ),
        metric("core.probe_skip_ratio", ratio(skip, skip + pass), "share"),
        metric(
            "core.decode_error",
            c.get("core.decode_error") as f64,
            "count",
        ),
        metric("core.busy_s", server_busy, "s"),
        metric(
            "core.us_per_step",
            per_step(server_busy, server_steps),
            "us",
        ),
        metric("core.subscribe_us", driver.subscribe_calls.mean_us(), "us"),
        metric(
            "core.unsubscribe_us",
            driver.unsubscribe_calls.mean_us(),
            "us",
        ),
        metric("core.rebuild_us", tracer.rebuild.mean_us(), "us"),
        metric("core.take_notifications_s", tracer.collect.secs, "s"),
        metric("aux.dead_letter", c.get("aux.dead_letter") as f64, "count"),
        metric("alerts.firing", c.get("alerts.firing") as f64, "count"),
        metric(
            "state.journal_appends",
            c.get("state.journal_appends") as f64,
            "count",
        ),
    ];
    let replay_started = Instant::now();
    metrics.extend(replay::all(
        inputs,
        &driver.schedule[..signature.events],
        &driver.deliveries,
        &driver.store_ops,
    ));
    let replay_s = replay_started.elapsed().as_secs_f64();
    metrics.push(metric(
        "trace.coverage",
        tracer.attributed_s() / (traced_wall - tracer.overhead_s),
        "share",
    ));
    metrics.push(metric("trace.overhead_s", tracer.overhead_s, "s"));

    let samples = format!(
        "{{\"segments\": {}, \"traced_wall_s\": {}, \"replay_s\": {}, \"identical_to_plain\": {identical}}}",
        driver.segments.len(),
        json_num(traced_wall),
        json_num(replay_s)
    );
    Outcome {
        correct: judgment.exact() && identical,
        attempted: driver.schedule.len() as u64,
        failed: judgment.failed_events + u64::from(!identical),
        metrics,
        provenance: provenance(
            workload, params, inputs, seed, true, &driver, &judgment, &samples,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn provenance(
    workload: Workload,
    params: &Params,
    inputs: &Inputs,
    seed: u64,
    trace: bool,
    driver: &Driver<'_>,
    judgment: &Judgment,
    samples: &str,
) -> String {
    let q = &judgment.quality;
    let (topo, _) = inputs.world.gds_tree(params.fanout);
    format!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"env\": {{\"cpus\": {}, \"rev\": {}}}, \
         \"params\": {{\"servers\": {}, \"gds_nodes\": {}, \"profiles\": {}, \"cold_profiles\": {}, \
         \"rebuilds\": {}, \"segment_rebuilds\": {}, \"segment_horizon_s\": {}, \"drain_s\": {}, \
         \"min_segments\": {}, \"docs_per_rebuild\": {}, \"drop_rate\": {}, \"churn\": {}}}, \
         \"oracle\": {{\"expected\": {}, \"delivered\": {}, \"false_negatives\": {}, \
         \"false_positives\": {}, \"duplicates\": {}, \"error_share\": {}}}, \"samples\": {samples}}}",
        json_str(workload.name()),
        json_str(workload.why()),
        report::cpus(),
        json_str(&report::source_rev()),
        params.servers,
        topo.len(),
        params.profiles,
        params.cold_profiles,
        driver.schedule.len(),
        params.segment_rebuilds,
        json_num(params.segment_horizon.as_secs_f64()),
        json_num(params.drain.as_secs_f64()),
        params.min_segments,
        params.docs_per_rebuild,
        json_num(params.drop),
        params.churn,
        q.expected,
        q.delivered,
        q.false_negatives,
        q.false_positives,
        q.duplicates,
        json_num(judgment.error_share()),
    )
}
