//! Tracer-core invariants against the *global* tracer: span nesting,
//! orphan-close accounting and snapshot assembly.
//!
//! The gate, ring and misnesting counter are process-global, so this file
//! keeps everything in one `#[test]` (integration tests in other files
//! run in their own processes and are unaffected).

use fsp_obs::{
    check_nesting, chrome_trace_json, drain, inject_foreign, instant, now_ns, profile, record_span,
    set_tracing, snapshot, span, span_labeled, Event,
};

#[test]
fn global_tracer_end_to_end() {
    // Disabled: guards are inert and nothing is recorded.
    {
        let _idle = span("disabled.span");
    }
    let before_enable = now_ns();
    record_span("disabled.recorded", before_enable);
    assert!(
        !snapshot()
            .events
            .iter()
            .any(|e| e.name == "disabled.span" || e.name == "disabled.recorded"),
        "disabled tracer must not record"
    );

    set_tracing(true);

    // A span recorded after the switch-on keeps its earlier start.
    record_span("t.recorded", before_enable);
    let recorded = get_event(&snapshot().events, "t.recorded").clone();
    assert_eq!(recorded.start_ns, before_enable);
    assert_eq!(recorded.depth, 0);
    assert!(!recorded.instant);

    // Strictly nested spans on this thread, plus concurrent threads each
    // with their own stack.
    {
        let _outer = span_labeled("t.outer", "gemm");
        {
            let _mid = span("t.mid");
            let _inner = span("t.inner");
        }
        instant("t.mark", None);
    }
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let _a = span("t.worker");
                let _b = span_labeled("t.worker.chunk", format!("chunk-{i}"));
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = snapshot();
    let names: Vec<&str> = snap.events.iter().map(|e| e.name.as_ref()).collect();
    for expected in ["t.outer", "t.mid", "t.inner", "t.mark", "t.worker"] {
        assert!(names.contains(&expected), "missing event `{expected}`");
    }
    check_nesting(&snap.events).expect("per-thread intervals must strictly nest");

    // Depths follow the stack: outer=0, mid=1, inner=2, and each event's
    // interval is contained in its parent's.
    let get = |name: &str| {
        snap.events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no `{name}`"))
    };
    let (outer, mid, inner) = (get("t.outer"), get("t.mid"), get("t.inner"));
    assert_eq!((outer.depth, mid.depth, inner.depth), (0, 1, 2));
    assert_eq!(outer.label.as_deref(), Some("gemm"));
    assert_eq!(outer.tid, mid.tid);
    assert!(outer.start_ns <= mid.start_ns);
    assert!(mid.start_ns + mid.dur_ns <= outer.start_ns + outer.dur_ns);
    assert!(inner.start_ns >= mid.start_ns);

    // The four worker threads traced on distinct lanes with names.
    let worker_tids: std::collections::BTreeSet<u32> = snap
        .events
        .iter()
        .filter(|e| e.name == "t.worker")
        .map(|e| e.tid)
        .collect();
    assert_eq!(worker_tids.len(), 4, "one lane per thread");
    assert!(snap.threads.len() >= 5, "threads register names");

    // No orphan closes so far.
    assert_eq!(snap.misnested, 0);

    // Foreign injection lands on its own process lane and survives into
    // the Chrome export alongside local events.
    inject_foreign(
        "worker-a",
        [Event {
            process: None,
            tid: 1,
            name: "t.remote".into(),
            label: Some("lease-1".into()),
            start_ns: outer.start_ns,
            dur_ns: 10,
            depth: 0,
            instant: false,
        }],
    );
    let snap = snapshot();
    let remote = get_event(&snap.events, "t.remote");
    assert_eq!(remote.process.as_deref(), Some("worker-a"));
    let json = chrome_trace_json(&snap, "local");
    assert!(json.contains("\"name\":\"worker-a\""));
    assert!(json.contains("\"name\":\"t.remote\""));

    // Profile aggregates the four worker spans into one row.
    let rows = profile(&snap.events);
    let worker_row = rows.iter().find(|r| r.name == "t.worker").unwrap();
    assert_eq!(worker_row.count, 4);
    assert!(worker_row.total_ns >= worker_row.self_ns);

    // An orphan close: dropping the parent guard before the child is
    // counted, not fatal.
    let parent = span("t.orphan.parent");
    let child = span("t.orphan.child");
    drop(parent);
    drop(child);
    let snap = snapshot();
    assert!(snap.misnested > 0, "out-of-order close must be counted");

    // Draining empties the ring; subsequent snapshots start fresh.
    let drained = drain();
    assert!(!drained.events.is_empty());
    assert!(snapshot().events.is_empty());

    set_tracing(false);
    {
        let _off = span("t.after.disable");
    }
    assert!(snapshot().events.is_empty(), "gate off stops recording");
}

fn get_event<'a>(events: &'a [Event], name: &str) -> &'a Event {
    events
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no `{name}`"))
}
