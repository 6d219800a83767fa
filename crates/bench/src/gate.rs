//! The retry policy of the CI speedup gate (`--bench-network`).
//!
//! The gate reads an optional `*_MIN_SPEEDUP` environment variable,
//! measures, and — when a threshold is set — re-measures a below-threshold
//! reading up to three times, keeping the best attempt. Interference on a
//! shared host only ever *inflates* run times, so a single noisy attempt
//! must not fail the gate, while a true regression fails every attempt.

/// Parses a `*_MIN_SPEEDUP`-style gate threshold from the environment. An
/// unset or empty variable means no gate, as with `CONGEST_CACHE`.
///
/// # Panics
///
/// Panics if the variable is set to something that is not a number — a
/// misconfigured CI gate must fail loudly, not silently skip enforcement.
#[must_use]
pub fn speedup_threshold(env_var: &str) -> Option<f64> {
    parse_threshold(env_var, std::env::var(env_var).ok().as_deref())
}

/// The gate threshold that `value` (the raw contents of `env_var`, if set)
/// requests; see [`speedup_threshold`].
fn parse_threshold(env_var: &str, value: Option<&str>) -> Option<f64> {
    value.filter(|v| !v.is_empty()).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{env_var} must be a number, got {v:?}"))
    })
}

/// Runs `measure` (which returns a result plus its aggregate speedup) once,
/// or — when `threshold` is set and the reading falls below it — up to
/// three times, keeping the attempt with the best aggregate. Prints a
/// re-measure notice between below-threshold attempts.
///
/// The caller still enforces the threshold on the returned aggregate; this
/// helper only owns the retry policy.
pub fn measure_best_of<T>(
    threshold: Option<f64>,
    mut measure: impl FnMut() -> (T, f64),
) -> (T, f64) {
    let attempts = if threshold.is_some() { 3 } else { 1 };
    let mut best: Option<(T, f64)> = None;
    for attempt in 1..=attempts {
        let (result, aggregate) = measure();
        if best.as_ref().is_none_or(|(_, b)| aggregate > *b) {
            best = Some((result, aggregate));
        }
        let best_aggregate = best.as_ref().map_or(0.0, |(_, b)| *b);
        if threshold.is_none_or(|t| best_aggregate >= t) {
            break;
        }
        if attempt < attempts {
            println!(
                "attempt {attempt}: aggregate {aggregate:.2}x below the gate — re-measuring\n"
            );
        }
    }
    best.expect("at least one measurement attempt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_threshold_measures_exactly_once() {
        let mut calls = 0;
        let (value, aggregate) = measure_best_of(None, || {
            calls += 1;
            (calls, 0.1)
        });
        assert_eq!((calls, value), (1, 1));
        assert!((aggregate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn passing_threshold_stops_after_first_attempt() {
        let mut calls = 0;
        let (_, aggregate) = measure_best_of(Some(1.0), || {
            calls += 1;
            (calls, 2.0)
        });
        assert_eq!(calls, 1);
        assert!((aggregate - 2.0).abs() < 1e-12);
    }

    #[test]
    fn failing_threshold_retries_and_keeps_the_best() {
        let mut calls = 0;
        let readings = [0.5, 0.9, 0.7];
        let (value, aggregate) = measure_best_of(Some(1.0), || {
            let reading = readings[calls];
            calls += 1;
            (calls, reading)
        });
        // All three attempts ran; the best (second) one was kept.
        assert_eq!(calls, 3);
        assert_eq!(value, 2);
        assert!((aggregate - 0.9).abs() < 1e-12);
    }

    #[test]
    fn threshold_met_mid_retry_stops_early() {
        let mut calls = 0;
        let readings = [0.5, 1.4, 0.7];
        let (_, aggregate) = measure_best_of(Some(1.0), || {
            let reading = readings[calls];
            calls += 1;
            ((), reading)
        });
        assert_eq!(calls, 2);
        assert!((aggregate - 1.4).abs() < 1e-12);
    }

    #[test]
    fn threshold_parses_from_environment() {
        // Unset variables yield no gate (don't mutate the environment here:
        // the suite runs tests concurrently).
        assert_eq!(speedup_threshold("BENCH_GATE_TEST_UNSET_VAR"), None);
    }

    #[test]
    fn empty_threshold_means_no_gate() {
        assert_eq!(parse_threshold("GATE", None), None);
        assert_eq!(parse_threshold("GATE", Some("")), None);
        assert_eq!(parse_threshold("GATE", Some("3.0")), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "GATE must be a number, got \"fast\"")]
    fn non_numeric_threshold_panics() {
        let _ = parse_threshold("GATE", Some("fast"));
    }
}
