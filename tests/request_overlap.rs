//! A cold `characterization_request` runs the timing stage on a second
//! thread beside prepare → capture → characterize. This checks that the
//! overlap changes nothing but wall time: against the four stage methods
//! run one after another on another fresh store, the request writes the
//! same manifest and byte-identical stage artifacts (all but the
//! provenance record's creation time), and does exactly the same
//! training and simulation work; its warm replay does none.
//!
//! Its own test binary: the work counters (`nn::train::epochs_run()`,
//! `gatesim::sim_transitions()`) are process-global, so no other test
//! may train or simulate while the deltas are taken. CI runs it
//! repeatedly to catch a race that a single lucky run would hide.

use charstore::{Digest128, Section};
use powerpruning::cache::{self, RequestManifest};
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};

/// Training epochs and simulated transitions spent by `f`.
fn work<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let epochs = nn::train::epochs_run();
    let transitions = gatesim::sim_transitions();
    let out = f();
    (
        out,
        nn::train::epochs_run() - epochs,
        gatesim::sim_transitions() - transitions,
    )
}

/// A stored artifact with its provenance record's `created_unix`
/// wall-clock stamp dropped: the provenance fields that remain, then
/// every other section byte for byte.
fn artifact(p: &Pipeline, key: Digest128) -> (Vec<(String, String)>, Vec<Section>) {
    let sections = p
        .cache()
        .expect("cache enabled")
        .store()
        .get(key)
        .expect("artifact stored");
    let provenance = cache::decode_provenance(&sections)
        .into_iter()
        .filter(|(k, _)| k != "created_unix")
        .collect();
    let payload = sections
        .iter()
        .filter(|s| cache::decode_provenance(std::slice::from_ref(s)).is_empty())
        .cloned()
        .collect();
    (provenance, payload)
}

/// The manifest a request would write, built from the four stage
/// methods run in sequence.
fn serial_manifest(p: &Pipeline, kind: NetworkKind) -> RequestManifest {
    let ctx = p.ctx();
    let mut prepared = p.prepare(kind);
    let capture = cache::capture_key(&ctx, &mut prepared);
    let captures = p.capture(&mut prepared);
    let chars = p.characterize(&captures);
    let _ = p.characterize_timing(f64::MAX);
    RequestManifest {
        training: cache::training_key(&ctx, kind),
        capture,
        characterization: cache::characterization_key(&ctx, &captures),
        timing: cache::timing_key(&ctx, f64::MAX),
        accuracy: prepared.accuracy,
        captures: captures.len() as u64,
        power_codes: chars.power_profile.codes().len() as u64,
    }
}

#[test]
fn overlapped_request_matches_the_serial_stages() {
    let root = std::env::temp_dir().join(format!("powerpruning-overlap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = PipelineConfig::for_scale(Scale::Micro);
    let kind = NetworkKind::LeNet5;

    let serial = Pipeline::with_cache_dir(cfg, root.join("serial"));
    let (serial_manifest, serial_epochs, serial_transitions) =
        work(|| serial_manifest(&serial, kind));
    assert!(
        serial_epochs > 0 && serial_transitions > 0,
        "cold stages did no work"
    );

    let overlapped = Pipeline::with_cache_dir(cfg, root.join("overlapped"));
    let run = overlapped.characterization_request(kind);
    assert!(!run.manifest_hit, "a fresh store answered the request");
    assert_eq!(run.manifest, serial_manifest);
    assert_eq!(run.training_epochs, serial_epochs);
    assert_eq!(run.sim_transitions, serial_transitions);

    let m = &run.manifest;
    for (stage, key) in [
        ("training", m.training),
        ("capture", m.capture),
        ("characterization", m.characterization),
        ("timing", m.timing),
    ] {
        let (provenance, payload) = artifact(&overlapped, key);
        assert!(!provenance.is_empty(), "{stage} artifact has no provenance");
        assert!(!payload.is_empty(), "{stage} artifact has no payload");
        assert_eq!(
            (provenance, payload),
            artifact(&serial, key),
            "{stage} artifact differs"
        );
    }

    let replay = Pipeline::with_cache_dir(cfg, root.join("overlapped"));
    let (warm, epochs, transitions) = work(|| replay.characterization_request(kind));
    assert!(warm.manifest_hit, "the replay missed the stored manifest");
    assert_eq!(warm.manifest, serial_manifest);
    assert_eq!((warm.training_epochs, warm.sim_transitions), (0, 0));
    assert_eq!((epochs, transitions), (0, 0));

    let _ = std::fs::remove_dir_all(&root);
}
