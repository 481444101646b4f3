//! Property tests for the tracing wire formats.
//!
//! 1. **JSON round-trip** — randomly generated [`Event`]s and
//!    [`FinishedTrace`]s survive encode → parse exactly, including
//!    awkward strings (quotes, backslashes, control characters,
//!    non-ASCII) and extreme numeric values.
//! 2. **Corruption rejection** — truncating or mangling an encoded line
//!    never panics the parser; it either round-trips to the same value
//!    (when the damage hit insignificant whitespace) or returns `Err`.
//! 3. **Flight-recorder wraparound** — hammering a small ring from many
//!    threads never tears an event and never loses per-trace ordering
//!    (the dedicated concurrent test lives in `crates/obs/tests`; here
//!    the single-threaded wrap arithmetic is property-checked across
//!    random capacities and write counts).

use tsvr_obs::trace::{Event, EventKind, FinishedTrace, FlightRecorder};
use tsvr_sim::check;
use tsvr_sim::rng::Pcg32;

/// A string that exercises JSON escaping: quotes, backslashes, newlines,
/// control characters, and some multi-byte UTF-8.
fn awkward_string(rng: &mut Pcg32) -> String {
    const PIECES: &[&str] = &[
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "new\nline",
        "tab\there",
        "\u{1}\u{1f}",
        "naïve",
        "日本語",
        "{na:me}",
        "",
        "a,b:c[d]e",
    ];
    let n = check::len_in(rng, 0, 4);
    (0..n)
        .map(|_| PIECES[rng.uniform_usize(PIECES.len())])
        .collect()
}

fn random_u64(rng: &mut Pcg32) -> u64 {
    // Mix of small ids, bucket boundaries, and huge values. u64::MAX
    // itself is excluded: the f64-backed JSON number saturates there,
    // which is exercised by the dedicated slowlog-threshold tests.
    match rng.uniform_usize(4) {
        0 => rng.uniform_usize(10) as u64,
        1 => rng.next_u32() as u64,
        2 => u64::MAX >> 12, // still exactly representable in f64
        _ => rng.next_u64() >> 11,
    }
}

fn random_event(rng: &mut Pcg32) -> Event {
    Event {
        seq: random_u64(rng),
        kind: if rng.chance(0.3) {
            EventKind::Incident
        } else {
            EventKind::Span
        },
        trace: random_u64(rng),
        span: random_u64(rng),
        parent: random_u64(rng),
        name: awkward_string(rng).into(),
        detail: awkward_string(rng).into(),
        start_ns: random_u64(rng),
        dur_ns: random_u64(rng),
    }
}

fn random_trace(rng: &mut Pcg32) -> FinishedTrace {
    let n = check::len_in(rng, 0, 12);
    FinishedTrace {
        trace: random_u64(rng),
        name: awkward_string(rng).into(),
        dur_ns: random_u64(rng),
        events: (0..n).map(|_| random_event(rng)).collect(),
        dropped: rng.uniform_usize(600) as u64,
    }
}

#[test]
fn events_round_trip_through_json_lines() {
    check::cases(256, |case, rng| {
        let ev = random_event(rng);
        let line = ev.to_json_line();
        let back = Event::parse_line(&line).unwrap_or_else(|e| {
            panic!("case {case}: parse of own encoding failed: {e}\nline: {line}")
        });
        assert_eq!(back, ev, "case {case}: event changed through {line}");
    });
}

#[test]
fn finished_traces_round_trip_through_json() {
    check::cases(128, |case, rng| {
        let t = random_trace(rng);
        let v = t.to_json_value();
        let back = FinishedTrace::from_json_value(&v)
            .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}"));
        assert_eq!(back, t, "case {case}: trace changed through JSON");
        // The rendered tree never panics, whatever the parent links are.
        let _ = back.render_tree();
    });
}

#[test]
fn corrupted_lines_error_instead_of_panicking() {
    check::cases(256, |_case, rng| {
        let ev = random_event(rng);
        let line = ev.to_json_line();
        let bytes = line.as_bytes();
        // Truncate at a random byte boundary...
        let cut = rng.uniform_usize(bytes.len());
        if let Ok(s) = std::str::from_utf8(&bytes[..cut]) {
            if let Ok(back) = Event::parse_line(s) {
                // Only a cut inside trailing whitespace can still parse.
                assert_eq!(back, ev);
            }
        }
        // ...and flip one byte to another printable character.
        let mut mangled = bytes.to_vec();
        let at = rng.uniform_usize(mangled.len());
        mangled[at] = b' ' + (rng.uniform_usize(94) as u8);
        if let Ok(s) = std::str::from_utf8(&mangled) {
            // Must not panic; a still-valid parse is fine (the flip may
            // have landed in a string payload).
            let _ = Event::parse_line(s);
        }
    });
}

#[test]
fn flight_recorder_wrap_keeps_the_newest_events_in_seq_order() {
    check::cases(64, |case, rng| {
        let cap = check::len_in(rng, 1, 33);
        let writes = check::len_in(rng, 0, 4 * cap + 1);
        let rec = FlightRecorder::with_capacity(cap);
        for i in 0..writes {
            let mut ev = random_event(rng);
            ev.start_ns = i as u64; // self-describing payload
            rec.record(ev);
        }
        assert_eq!(rec.recorded(), writes as u64, "case {case}");
        let events = rec.events();
        assert_eq!(events.len(), writes.min(cap), "case {case}");
        // Exactly the newest `cap` events survive, in ascending seq
        // order, and each one's payload is untorn.
        let oldest = writes.saturating_sub(cap);
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, (oldest + k) as u64, "case {case}: seq gap");
            assert_eq!(
                ev.start_ns,
                (oldest + k) as u64,
                "case {case}: payload mismatch"
            );
        }
    });
}
