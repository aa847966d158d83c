//! The clippy gate testing itself (`clippy.toml` and
//! `[workspace.lints.clippy]` in the root `Cargo.toml`; DESIGN.md §D11).
//! One canary per banned thing commits the offence under `#[expect]`:
//! while the gate holds the expectation is fulfilled and nothing is
//! reported; drop a `clippy.toml` entry and
//! `cargo clippy --workspace --all-targets -- -D warnings` fails here with
//! `unfulfilled_lint_expectations`. The last test covers what `#[expect]`
//! cannot see.

use crate::state::TxState;

#[test]
#[expect(clippy::disallowed_methods)]
fn wall_clock_is_banned() {
    let _ = std::time::Instant::now();
}

#[test]
#[expect(clippy::disallowed_methods)]
fn os_seeded_rng_is_banned() {
    let _ = rand::thread_rng();
}

#[test]
#[expect(clippy::disallowed_types)]
fn random_state_hash_map_is_banned() {
    let _ = std::collections::HashMap::<u8, u8>::new();
}

#[test]
#[expect(clippy::wildcard_enum_match_arm)]
fn wildcard_arm_over_tx_state_is_banned() {
    let rank = match TxState::Active {
        TxState::Active => 0,
        _ => 1,
    };
    assert_eq!(rank, 0);
}

/// `#[expect]` switches a lint on for its own scope, so the canaries above
/// cannot see a lint being switched off for everyone else: a line missing
/// from `[workspace.lints.clippy]`, or a crate that never opted in.
#[test]
fn every_crate_inherits_the_workspace_gate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("readable manifest");
    let workspace = read(&root.join("Cargo.toml"));
    for lint in [
        "disallowed_methods",
        "disallowed_types",
        "wildcard_enum_match_arm",
        "match_wildcard_for_single_variants",
    ] {
        assert!(
            workspace.contains(&format!("{lint} = \"deny\"")),
            "[workspace.lints.clippy] must deny {lint}"
        );
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for members in ["crates", "shims"] {
        for member in std::fs::read_dir(root.join(members)).expect("member directory") {
            manifests.push(member.expect("directory entry").path().join("Cargo.toml"));
        }
    }
    for manifest in manifests {
        assert!(
            read(&manifest).contains("[lints]\nworkspace = true"),
            "{} must inherit the workspace lints",
            manifest.display()
        );
    }
}
