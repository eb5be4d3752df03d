//! The benchmark's own checks, run at tiny simulated horizons.

use fastrak_e2ebench::{
    end_to_end, per_layer, run_once, setup, Outcome, SetupTimes, Spans, StepTrace, Workload,
};
use fastrak_sim::time::SimTime;

const TINY: SimTime = SimTime::from_millis(20);

fn untraced(w: Workload, seed: u64) -> Outcome {
    run_once(w, seed, TINY, &mut Spans::new(false), None)
}

fn traced(w: Workload, seed: u64) -> (Outcome, StepTrace, Spans) {
    let mut st = StepTrace::default();
    let mut spans = Spans::new(true);
    let o = run_once(w, seed, TINY, &mut spans, Some(&mut st));
    (o, st, spans)
}

#[test]
fn fingerprint_repeats_for_a_seed_and_changes_with_it() {
    for w in Workload::ALL {
        let a = untraced(w, 1).fingerprint();
        assert_eq!(a, untraced(w, 1).fingerprint(), "{}: same seed", w.name());
        assert_ne!(a, untraced(w, 2).fingerprint(), "{}: other seed", w.name());
    }
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    for w in Workload::ALL {
        let plain = untraced(w, 3);
        let (o, st, spans) = traced(w, 3);
        assert_eq!(plain.counts, o.counts, "{}", w.name());
        assert_eq!(plain.fingerprint(), o.fingerprint(), "{}", w.name());

        // One class per step; a step delivers one event or one burst.
        let steps: u64 = st.classes.iter().map(|k| k.hist.count()).sum();
        assert!(
            st.classes.iter().all(|k| k.hist.count() > 0),
            "{}: every class has steps",
            w.name()
        );
        let events = plain.count("sim.events");
        assert!(steps <= events && steps >= events - plain.count("sim.burst_events"));
        let m = per_layer(&[plain], &[o], &[SetupTimes::default()], 1.0, &st);
        let share: f64 = m
            .iter()
            .filter(|x| x.0.ends_with(".busy_share"))
            .map(|x| x.1)
            .sum();
        assert!(
            (share - 1.0).abs() < 1e-9,
            "{}: busy shares sum to {share}",
            w.name()
        );
        if w != Workload::ChurnFastrak {
            for (name, v, _) in m.iter().filter(|x| x.0.starts_with("core.")) {
                assert_eq!(*v, 0.0, "{}: {name}", w.name());
            }
        }

        let names: Vec<&str> = spans.spans().iter().map(|s| s.name.as_str()).collect();
        for want in [
            "Testbed::build",
            "place",
            "attach+start",
            "slice 1",
            "publish_telemetry",
        ] {
            assert!(names.contains(&want), "{}: no {want} span", w.name());
        }
        assert!(spans.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text: String = include_str!("../../BENCHMARK.json")
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    let start = text
        .find(&format!("\"{section}\":["))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closed")];
    let field = |obj: &str, key: &str| {
        let at = obj
            .find(&format!("\"{key}\":\""))
            .map(|i| i + key.len() + 4)?;
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").unwrap(),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn name_ok(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn printed_names_match_benchmark_json() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|x| x.0).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let w = Workload::RrVif;
    let plain = untraced(w, 1);
    let (o, st, _) = traced(w, 1);
    let setups = [setup(w, 1, &mut Spans::new(false)).1];
    for (section, printed) in [
        (
            "end_to_end",
            end_to_end(std::slice::from_ref(&plain), &setups, 1.0, 1.0),
        ),
        ("per_layer", per_layer(&[plain], &[o], &setups, 1.0, &st)),
    ] {
        let printed: Vec<(String, String)> = printed
            .into_iter()
            .map(|(n, _, u)| (n, u.to_string()))
            .collect();
        let mut sorted = declared(section);
        sorted.sort();
        let mut got = printed.clone();
        got.sort();
        assert_eq!(
            got, sorted,
            "{section}: printed metrics differ from BENCHMARK.json"
        );
        got.dedup_by(|a, b| a.0 == b.0);
        assert_eq!(
            got.len(),
            printed.len(),
            "{section}: a name is printed twice"
        );
        for (n, u) in &printed {
            assert!(name_ok(n), "bad name {n}");
            assert!(unit_ok(u), "bad unit {u} of {n}");
        }
    }
}
