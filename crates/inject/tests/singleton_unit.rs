//! A batched campaign runs every unit as a replay: a site alone in its
//! unit rides a one-lane replay of its own, and only a lane budget of 1
//! runs sites solo. Kept alone in its test binary, so the process-wide
//! `fsp_inject_batch_lanes` histogram counts this test's replays only.

use fsp_inject::testing::CountdownTarget;
use fsp_inject::{Experiment, FaultModel, NopObserver, WeightedSite};

#[test]
fn a_singleton_unit_rides_a_replay() {
    let target = CountdownTarget::new();
    let mut e = Experiment::prepare(&target).expect("fault-free run");
    let space = e.site_space(0..CountdownTarget::THREADS);
    let sites: Vec<WeightedSite> = space
        .thread_site_iter(1)
        .take(1)
        .map(WeightedSite::from)
        .collect();
    let replays = fsp_obs::registry().histogram(
        "fsp_inject_batch_lanes",
        "Lane occupancy of batched injection replays.",
    );
    let run = |e: &Experiment<'_, CountdownTarget>| {
        e.run_campaign_incremental(&sites, FaultModel::SingleBitFlip, 1, &[], &NopObserver)
    };

    let before = replays.count();
    let batched = run(&e);
    assert_eq!(
        replays.count(),
        before + 1,
        "the singleton unit rode a replay"
    );
    assert_eq!(batched.batch_replays, 1);

    e.set_batch(1);
    let before = replays.count();
    let solo = run(&e);
    assert_eq!(replays.count(), before, "a lane budget of 1 runs solo");
    assert_eq!(solo.batch_replays, 0);
    assert_eq!(solo.outcomes, batched.outcomes);
}
