//! `reset_all` semantics, isolated in its own test binary (= its own
//! process) because a global reset racing the other metric tests would
//! zero their counters mid-assertion.

#[test]
fn reset_all_zeroes_values_but_keeps_registrations() {
    let counter = mocp_obs::counter("reset.counter");
    let gauge = mocp_obs::gauge("reset.gauge");
    let hist = mocp_obs::histogram("reset.hist");
    counter.add(3);
    gauge.set(-5);
    hist.record(123);
    hist.record(4096);

    mocp_obs::reset_all();

    assert_eq!(counter.get(), 0);
    assert_eq!(gauge.get(), 0);
    assert_eq!(hist.snapshot(), mocp_obs::HistogramSnapshot::default());
    // The names stay registered and the handles stay live.
    let names: Vec<_> = mocp_obs::snapshot().iter().map(|s| s.name).collect();
    assert!(names.contains(&"reset.counter"));
    assert!(names.contains(&"reset.gauge"));
    assert!(names.contains(&"reset.hist"));
    counter.inc();
    assert_eq!(mocp_obs::counter("reset.counter").get(), 1);
}

#[test]
fn render_helpers_format_samples() {
    let counter = mocp_obs::counter("render.count");
    counter.add(9);
    let samples = mocp_obs::snapshot();
    let table = mocp_obs::render_table(&samples);
    assert!(table.contains("render.count"));
}
