//! The process-wide `obs::set_enabled` switch turns metric updates
//! into no-ops.
//!
//! This lives in its own integration-test binary because the switch
//! is process-global: flipping it while other tests increment on other
//! threads makes those increments vanish. Keep this file to the single
//! gate-flipping test.

use obs::metrics::{counter, histogram};

#[test]
fn disabled_registry_is_a_no_op() {
    let c = counter("obs_test_disabled_total");
    let h = histogram("obs_test_disabled_seconds", &[1.0]);
    let before = c.get();
    obs::set_enabled(false);
    c.add(10);
    h.observe(0.5);
    obs::set_enabled(true);
    assert_eq!(c.get(), before);
    assert_eq!(h.count(), 0);
    c.inc();
    assert_eq!(c.get(), before + 1);
}
