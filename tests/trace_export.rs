//! Exporter-level tests for the trace subsystem: the JSONL stream parses
//! back field-for-field, the Chrome trace is a valid event array with
//! monotonic timestamps per thread, and the tracer's funnel, the metrics
//! registry and the engine's `SubstStats` reconcile exactly.

use boolsubst::core::{all_configs, Acceptance, Session, StatValue, SubstStats};
use boolsubst::trace::export::{chrome_trace_string, jsonl_string};
use boolsubst::trace::json::Json;
use boolsubst::trace::{GuardScope, GuardTier, Outcome, PairRecord, Stage, TraceEvent, Tracer};
use boolsubst::workloads::generator::{random_network, GeneratorParams};
use boolsubst::MetricsHandle;
use std::collections::HashMap;

/// One traced and metered run per mode on the same generated network.
fn traced_runs(
    threads: usize,
    acceptance: Acceptance,
    checked: bool,
) -> Vec<(Tracer, SubstStats, MetricsHandle)> {
    let base = random_network(11, &GeneratorParams::default());
    ["basic", "ext", "ext-gdc"]
        .into_iter()
        .zip(all_configs())
        .map(|(name, opts)| {
            let mut net = base.clone();
            let mut tracer = Tracer::new(name);
            let handle = MetricsHandle::new();
            let opts = opts
                .with_threads(threads)
                .with_acceptance(acceptance)
                .with_checked(checked);
            let stats = Session::new(&mut net, opts)
                .tracer(&mut tracer)
                .metrics(&handle)
                .run();
            (tracer, stats, handle)
        })
        .collect()
}

#[test]
fn jsonl_roundtrips_field_for_field() {
    let runs = [Acceptance::FirstGain, Acceptance::BestGain]
        .into_iter()
        .flat_map(|acceptance| traced_runs(1, acceptance, false));
    for (tracer, ..) in runs {
        let text = jsonl_string(&tracer);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            1 + tracer.events().count(),
            "meta line + one line per event"
        );

        let meta = Json::parse(lines[0]).expect("meta parses");
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
        assert_eq!(meta.get("mode").and_then(Json::as_str), Some(tracer.mode()));
        assert_eq!(
            meta.get("pairs").and_then(Json::as_u64),
            Some(tracer.pairs())
        );
        assert!(meta.get("passes").is_none(), "a run is one sweep");

        for (ev, line) in tracer.events().zip(&lines[1..]) {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(v.get("pass").is_none(), "{line}: no pass field");
            match ev {
                TraceEvent::Pair(p) => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("pair"));
                    assert_eq!(
                        v.get("target").and_then(Json::as_u64),
                        Some(u64::from(p.target))
                    );
                    assert_eq!(
                        v.get("divisor").and_then(Json::as_u64),
                        Some(u64::from(p.divisor))
                    );
                    assert_eq!(
                        v.get("start_ns").and_then(Json::as_u64),
                        Some(tracer.start_ns(p))
                    );
                    assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(p.dur_ns));
                    assert_eq!(
                        v.get("enumerate_ns").and_then(Json::as_u64),
                        Some(p.stages.enumerate)
                    );
                    assert_eq!(
                        v.get("filter_ns").and_then(Json::as_u64),
                        Some(p.stages.filter)
                    );
                    assert_eq!(v.get("sim_ns").and_then(Json::as_u64), Some(p.stages.sim));
                    assert_eq!(
                        v.get("divide_ns").and_then(Json::as_u64),
                        Some(p.stages.divide)
                    );
                    assert_eq!(
                        v.get("apply_ns").and_then(Json::as_u64),
                        Some(p.stages.apply)
                    );
                    assert_eq!(
                        v.get("outcome")
                            .and_then(Json::as_str)
                            .and_then(Outcome::from_name),
                        Some(p.outcome)
                    );
                    assert_eq!(v.get("gain").and_then(Json::as_i64), Some(p.gain));
                    assert_eq!(
                        v.get("rar_checks").and_then(Json::as_u64),
                        Some(p.rar_checks)
                    );
                    assert_eq!(
                        v.get("bound_skip").and_then(Json::as_bool),
                        Some(p.bound_skip)
                    );
                }
                TraceEvent::ShadowBuild { dur_ns, .. } => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("shadow_build"));
                    assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(*dur_ns));
                }
                TraceEvent::Guard { tier, dur_ns, .. } => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("guard"));
                    assert_eq!(v.get("tier").and_then(Json::as_str), Some(tier.name()));
                    assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(*dur_ns));
                }
            }
        }
    }
}

#[test]
fn chrome_trace_is_valid_with_monotonic_timestamps() {
    for threads in [1, 2] {
        chrome_trace_is_valid_at(threads);
    }
}

/// The Chrome checks at one thread count: at 2 threads the speculative
/// worker lanes carry spans too, and each lane must run forward in time.
fn chrome_trace_is_valid_at(threads: usize) {
    let runs = traced_runs(threads, Acceptance::FirstGain, false);
    let refs: Vec<&Tracer> = runs.iter().map(|(t, ..)| t).collect();
    let text = chrome_trace_string(&refs);
    let v = Json::parse(&text).expect("chrome trace parses as JSON");
    let rows = v.as_array().expect("chrome trace is an array");
    assert!(!rows.is_empty());

    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut complete = 0usize;
    let mut pids = std::collections::BTreeSet::new();
    for (i, row) in rows.iter().enumerate() {
        let ph = row.get("ph").and_then(Json::as_str).expect("ph");
        let pid = row.get("pid").and_then(Json::as_u64).expect("pid");
        let tid = row.get("tid").and_then(Json::as_u64).expect("tid");
        pids.insert(pid);
        match ph {
            "M" => {}
            "X" => {
                complete += 1;
                let ts = row.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = row.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0, "event {i}: negative ts/dur");
                if let Some(&prev) = last_ts.get(&(pid, tid)) {
                    assert!(
                        ts >= prev,
                        "threads={threads} event {i}: ts regressed on pid {pid} tid {tid}: \
                         {ts} < {prev}"
                    );
                }
                last_ts.insert((pid, tid), ts);
            }
            other => panic!("event {i}: unexpected ph {other:?}"),
        }
    }
    assert!(complete > 0, "no complete events");
    assert_eq!(
        pids.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "one Chrome process per traced mode"
    );
}

#[test]
fn funnel_reconciles_with_stats_counters() {
    let mut outranked = 0;
    for threads in [1, 2] {
        for acceptance in [Acceptance::FirstGain, Acceptance::BestGain] {
            for checked in [false, true] {
                for (tracer, stats, handle) in traced_runs(threads, acceptance, checked) {
                    let mode = format!(
                        "{} {acceptance:?} threads={threads} checked={checked}",
                        tracer.mode()
                    );
                    reconcile(&mode, acceptance, checked, &tracer, &stats, &handle);
                    outranked += tracer.outcome_count(Outcome::RejectedOutranked);
                    if threads == 1 {
                        stage_samples_match_spans(&mode, &tracer);
                    }
                }
            }
        }
    }
    assert!(outranked > 0, "no best-gain pair was outranked");
}

/// No sim work is booked outside a pair on a sequential run, so every
/// stage sample is one pair's share.
fn stage_samples_match_spans(mode: &str, tracer: &Tracer) {
    for stage in [Stage::Filter, Stage::Sim, Stage::Divide, Stage::Apply] {
        let spans = pair_spans(tracer)
            .filter(|p| p.stages.get(stage) > 0)
            .count();
        assert_eq!(
            tracer.stage_histogram(stage).count(),
            spans as u64,
            "{mode}: one {} sample per pair span",
            stage.name()
        );
    }
}

fn pair_spans(tracer: &Tracer) -> impl Iterator<Item = &PairRecord> {
    tracer.events().filter_map(|e| match e {
        TraceEvent::Pair(p) => Some(p),
        _ => None,
    })
}

/// The tracer funnel, the metrics registry and `SubstStats` are views of
/// one per-pair booking: every count they share must agree, under either
/// acceptance policy, unchecked and checked.
fn reconcile(
    mode: &str,
    acceptance: Acceptance,
    checked: bool,
    tracer: &Tracer,
    stats: &SubstStats,
    handle: &MetricsHandle,
) {
    let count = |o: Outcome| usize::try_from(tracer.outcome_count(o)).expect("count");
    let n = |v: usize| u64::try_from(v).expect("count");
    assert_eq!(tracer.dropped(), 0, "{mode}: every span is retained");

    // The registry holds every `SubstStats` field under `engine.<field>`.
    for (name, value) in stats.fields() {
        let key = format!("engine.{name}");
        let read = match value {
            StatValue::Count(_) => handle.counter_value(&key).map(StatValue::Count),
            StatValue::Signed(_) => handle.gauge_value(&key).map(StatValue::Signed),
        };
        assert_eq!(read, Some(value), "{mode}: {key}");
    }

    // Every pair the engine examined got exactly one span, outcome and
    // metrics sample.
    assert_eq!(
        tracer.pairs(),
        n(stats.candidates_enumerated),
        "{mode}: span count"
    );
    assert_eq!(
        handle.histogram("engine.pair_ns").count(),
        tracer.pairs(),
        "{mode}: engine.pair_ns samples"
    );
    let funnel_total: u64 = tracer.funnel().iter().map(|&(_, c)| c).sum();
    assert_eq!(funnel_total, tracer.pairs(), "{mode}: funnel total");

    // Each evaluated pair was proposed once. A best-gain visit evaluates
    // every candidate it proposes; a first-gain visit may leave the
    // candidates past a commit that its re-enumeration drops.
    match acceptance {
        Acceptance::BestGain => assert_eq!(
            stats.candidates_enumerated, stats.discovery_proposed,
            "{mode}: every proposed pair evaluated"
        ),
        Acceptance::FirstGain => assert!(
            stats.candidates_enumerated <= stats.discovery_proposed,
            "{mode}: {} pairs evaluated of {} proposed",
            stats.candidates_enumerated,
            stats.discovery_proposed
        ),
    }

    // Filter rejects map one-to-one onto the stats counters.
    assert_eq!(
        count(Outcome::RejectedStructural),
        stats.filtered_structural,
        "{mode}: structural"
    );
    assert_eq!(
        count(Outcome::RejectedTfo),
        stats.filtered_tfo,
        "{mode}: tfo"
    );
    assert_eq!(
        count(Outcome::RejectedDivisorSize),
        stats.filtered_divisor_size,
        "{mode}: divisor size"
    );
    assert_eq!(
        count(Outcome::RejectedJointSpace),
        stats.filtered_joint_space,
        "{mode}: joint space"
    );
    assert_eq!(
        count(Outcome::RejectedSimRefuted),
        stats.sim_pairs_refuted,
        "{mode}: sim refuted"
    );

    // Acceptances split by kind.
    let accepted = count(Outcome::AcceptedSop)
        + count(Outcome::AcceptedPos)
        + count(Outcome::AcceptedExtended);
    assert_eq!(accepted, stats.substitutions, "{mode}: accepted");
    assert_eq!(
        count(Outcome::AcceptedPos),
        stats.pos_substitutions,
        "{mode}: pos"
    );
    assert_eq!(
        count(Outcome::AcceptedExtended),
        stats.extended_decompositions,
        "{mode}: extended"
    );

    // Whatever survived the filters and wasn't accepted or refuted
    // fell through every strategy without gain, or (best-gain only)
    // gained but lost to the target's winner.
    assert_eq!(
        count(Outcome::RejectedNoGain) + count(Outcome::RejectedOutranked),
        stats.divisions_tried - stats.substitutions - stats.sim_pairs_refuted,
        "{mode}: no gain"
    );
    if acceptance == Acceptance::FirstGain {
        assert_eq!(count(Outcome::RejectedOutranked), 0, "{mode}: outranked");
    }

    // Pairs the forced-literal bound skipped a strategy on.
    let bound_spans = pair_spans(tracer).filter(|p| p.bound_skip).count();
    assert_eq!(bound_spans, stats.local_bound_skips, "{mode}: bound spans");
    assert_eq!(
        tracer.bound_skips(),
        n(stats.local_bound_skips),
        "{mode}: tracer bound skips"
    );

    // Histogram sample counts agree with the span count, and the
    // accepted rewrites carry the total literal gain.
    assert_eq!(tracer.pair_histogram().count(), tracer.pairs(), "{mode}");
    let span_gain: i64 = pair_spans(tracer).map(|p| p.gain).sum();
    assert_eq!(span_gain, stats.literal_gain, "{mode}: gain over spans");

    // RAR checks and shadow builds: spans, registry and stats agree
    // (and stay zero outside GDC).
    let rar: u64 = pair_spans(tracer).map(|p| p.rar_checks).sum();
    assert_eq!(rar, n(stats.rar_checks), "{mode}: rar checks over spans");
    assert_eq!(
        tracer.shadow_stats().0,
        n(stats.shadow_cache_misses),
        "{mode}: shadow builds"
    );
    if !mode.starts_with("ext-gdc") {
        assert_eq!(rar, 0, "{mode}: rar checks outside GDC");
        assert_eq!(tracer.shadow_stats().0, 0, "{mode}: shadow builds");
    }

    // Stage time: filter and apply time is only ever booked inside a
    // pair, enumeration only outside one. `divide_nanos` also holds the
    // sim-screen time that the spans count under Sim only.
    let span_sum = |stage: Stage| -> u64 { pair_spans(tracer).map(|p| p.stages.get(stage)).sum() };
    assert_eq!(
        span_sum(Stage::Filter),
        stats.filter_nanos,
        "{mode}: filter"
    );
    assert_eq!(span_sum(Stage::Apply), stats.apply_nanos, "{mode}: apply");
    assert_eq!(span_sum(Stage::Enumerate), 0, "{mode}: enumerate in spans");
    assert_eq!(
        tracer.stage_histogram(Stage::Enumerate).sum_ns(),
        stats.enumerate_nanos,
        "{mode}: enumerate"
    );
    let divide = span_sum(Stage::Divide);
    assert!(
        divide <= stats.divide_nanos && stats.divide_nanos <= divide + span_sum(Stage::Sim),
        "{mode}: span divide {divide} + screen share = divide_nanos {}",
        stats.divide_nanos
    );

    // Checked mode: one audit per pair past the cheap filters, and one
    // guard check per applied rewrite, kept or refuted; its scope and
    // tier are the ones the stats count.
    let past_filters = stats.candidates_enumerated
        - stats.filtered_structural
        - stats.filtered_tfo
        - stats.filtered_divisor_size
        - stats.filtered_joint_space;
    let guards: Vec<(GuardTier, GuardScope)> = tracer
        .events()
        .filter_map(|e| match e {
            TraceEvent::Guard { tier, scope, .. } => Some((*tier, *scope)),
            _ => None,
        })
        .collect();
    let guards_where = |pred: &dyn Fn(GuardTier, GuardScope) -> bool| {
        guards.iter().filter(|&&(t, s)| pred(t, s)).count()
    };
    if checked {
        assert_eq!(stats.sim_audits, past_filters, "{mode}: audits");
        assert_eq!(
            guards.len(),
            stats.substitutions + stats.guard_rejections,
            "{mode}: guard checks"
        );
    } else {
        assert_eq!(stats.sim_audits, 0, "{mode}: audits");
        assert!(guards.is_empty(), "{mode}: guard checks");
    }
    assert_eq!(
        guards_where(&|_, s| s == GuardScope::Network),
        stats.guard_network_checks,
        "{mode}: network-scope guard checks"
    );
    assert_eq!(
        guards_where(&|t, _| t == GuardTier::Sampled),
        stats.guard_pass_sampled,
        "{mode}: sampled guard passes"
    );
}

#[test]
fn report_renders_funnel_and_stages() {
    let (tracer, stats, _) = traced_runs(1, Acceptance::FirstGain, false).remove(2); // ext-gdc
    let text = tracer.report().to_string();
    assert!(text.contains("mode ext-gdc"));
    assert!(text.contains("-- outcome funnel --"));
    assert!(text.contains("-- stage latency --"));
    assert!(text.contains("=> accepted"));
    if stats.substitutions > 0 {
        assert!(text.contains("accept_"), "acceptances shown in funnel");
    }
    if stats.shadow_cache_misses > 0 {
        assert!(text.contains("shadow builds:"));
    }
}
