//! Soundness of the divisor-discovery funnel: every candidate the engine
//! enumerates (the fanouts of the target's fanins) still runs the full
//! filter chain and division proof, so the funnel counters must narrow
//! monotonically from proposals to proofs to accepted rewrites.

use boolsubst::core::{all_configs, Session, SubstOptions};
use boolsubst::workloads::generator::{random_network, GeneratorParams};

fn modes() -> Vec<(&'static str, SubstOptions)> {
    ["basic", "extended", "extended_gdc"]
        .into_iter()
        .zip(all_configs())
        .collect()
}

/// The accepted-rewrite tail of the funnel must reconcile: every accept
/// came out of a proposal, ran a proof, and landed in `substitutions`.
#[test]
fn signature_funnel_counters_reconcile() {
    let base = random_network(29, &GeneratorParams::default());
    for (name, opts) in modes() {
        let mut net = base.clone();
        let stats = Session::new(&mut net, opts).run();
        assert!(stats.discovery_proposed > 0, "{name}: empty funnel");
        assert!(
            stats.discovery_proofs_run <= stats.discovery_proposed,
            "{name}: more proofs than proposals"
        );
        assert!(
            stats.discovery_accepted <= stats.discovery_proofs_run,
            "{name}: more accepts than proofs"
        );
        assert_eq!(
            stats.discovery_accepted, stats.substitutions,
            "{name}: accepted != substitutions"
        );
    }
}
