//! Cross-family robustness smoke test (debug build, small sizes).
//!
//! Every run is also pinned to an absolute `(rounds, final position
//! digest)` pair, so any change to FSYNC round semantics — the merge
//! rule, the survivor order, the apply path — fails here even when the
//! swarm still gathers.
use gather_core::GatherController;
use gather_workloads::{all_families, family};
use grid_engine::{ConnectivityCheck, Engine, EngineConfig, OrientationMode};

/// `(family, requested n, seed, rounds to gather, final position digest)`.
const PINNED: &[(&str, usize, u64, u64, u64)] = &[
    ("line", 24, 1, 11, 0xcb8e80f65fed4e5e),
    ("line", 24, 2, 11, 0xcb8e80f65fed4e5e),
    ("line", 64, 1, 31, 0x08eea24088c1c642),
    ("line", 64, 2, 31, 0x08eea24088c1c642),
    ("line", 150, 1, 74, 0x01a14d47d219d861),
    ("line", 150, 2, 74, 0x01a14d47d219d861),
    ("square", 24, 1, 2, 0xc26d3e335e51bff9),
    ("square", 24, 2, 2, 0xc26d3e335e51bff9),
    ("square", 64, 1, 4, 0x58011b427e5242dd),
    ("square", 64, 2, 4, 0x58011b427e5242dd),
    ("square", 150, 1, 114, 0x889df59190fc4bd4),
    ("square", 150, 2, 114, 0x889df59190fc4bd4),
    ("diamond", 24, 1, 3, 0xe99ff867dbf682c9),
    ("diamond", 24, 2, 3, 0xe99ff867dbf682c9),
    ("diamond", 64, 1, 5, 0xe99ff867dbf682c9),
    ("diamond", 64, 2, 5, 0xe99ff867dbf682c9),
    ("diamond", 150, 1, 27, 0xe99ff867dbf682c9),
    ("diamond", 150, 2, 27, 0xe99ff867dbf682c9),
    ("hollow-square", 24, 1, 3, 0xacb0770836e3e52b),
    ("hollow-square", 24, 2, 3, 0xacb0770836e3e52b),
    ("hollow-square", 64, 1, 92, 0x889df59190fc4bd4),
    ("hollow-square", 64, 2, 92, 0x889df59190fc4bd4),
    ("hollow-square", 150, 1, 268, 0xce19d6a56cb2cfe8),
    ("hollow-square", 150, 2, 268, 0xce19d6a56cb2cfe8),
    ("table", 24, 1, 7, 0x908589516e14a28d),
    ("table", 24, 2, 7, 0x908589516e14a28d),
    ("table", 64, 1, 27, 0xc124805a2217959d),
    ("table", 64, 2, 27, 0xc124805a2217959d),
    ("table", 150, 1, 70, 0xa5705c4874133e86),
    ("table", 150, 2, 70, 0xa5705c4874133e86),
    ("random-blob", 24, 1, 3, 0xe99ff867dbf682c9),
    ("random-blob", 24, 2, 3, 0x447789cd1c39dcce),
    ("random-blob", 64, 1, 6, 0x793c44486e68d6e3),
    ("random-blob", 64, 2, 5, 0x0b2207d2b265a27e),
    ("random-blob", 150, 1, 27, 0xe99ff867dbf682c9),
    ("random-blob", 150, 2, 27, 0x219adb6c27b464eb),
    ("random-tree", 24, 1, 4, 0x79d8bd80e0f3506b),
    ("random-tree", 24, 2, 5, 0xd472361dfb8a2b6f),
    ("random-tree", 64, 1, 6, 0xad4440183426c4ea),
    ("random-tree", 64, 2, 8, 0xf9e8203a5943a3a3),
    ("random-tree", 150, 1, 10, 0xfc7b0ca300b9cbaa),
    ("random-tree", 150, 2, 12, 0x793c44486e68d6e3),
    ("skyline", 24, 1, 3, 0x51c019d145f20971),
    ("skyline", 24, 2, 3, 0x2bae734d11b6008f),
    ("skyline", 64, 1, 7, 0xee2d37bb8749f226),
    ("skyline", 64, 2, 7, 0xee2d37bb8749f226),
    ("skyline", 150, 1, 14, 0xada249a69940eff6),
    ("skyline", 150, 2, 14, 0x1a309d8c868c03c4),
    ("comb", 24, 1, 4, 0x56a493ae21d0b876),
    ("comb", 24, 2, 4, 0x56a493ae21d0b876),
    ("comb", 64, 1, 8, 0xee2d37bb8749f226),
    ("comb", 64, 2, 8, 0xee2d37bb8749f226),
    ("comb", 150, 1, 18, 0xeb5e69b03466abc9),
    ("comb", 150, 2, 18, 0xeb5e69b03466abc9),
    ("spiral", 24, 1, 3, 0x219adb6c27b464eb),
    ("spiral", 24, 2, 3, 0x219adb6c27b464eb),
    ("spiral", 64, 1, 7, 0xe9d81b90175050ef),
    ("spiral", 64, 2, 7, 0xe9d81b90175050ef),
    ("spiral", 150, 1, 93, 0x2ee7471d39617aa8),
    ("spiral", 150, 2, 93, 0x2ee7471d39617aa8),
    ("clusters", 24, 1, 5, 0x64b4b5368dadd1e4),
    ("clusters", 24, 2, 5, 0xc97a4525370cb8a9),
    ("clusters", 64, 1, 15, 0xbd86e0eea3537e8f),
    ("clusters", 64, 2, 14, 0xbd86e0eea3537e8f),
    ("clusters", 150, 1, 34, 0x3dfd5106fb644178),
    ("clusters", 150, 2, 33, 0x17ae18a5068e5d81),
];

#[test]
fn all_families_gather_small() {
    let mut actual: Vec<(&str, usize, u64, u64, u64)> = Vec::new();
    for f in all_families() {
        for n in [24usize, 64, 150] {
            for seed in [1u64, 2] {
                let pts = family(f, n, seed);
                let count = pts.len() as u64;
                let mut e = Engine::from_positions(
                    &pts,
                    OrientationMode::Scrambled(seed),
                    GatherController::paper(),
                    EngineConfig {
                        connectivity: ConnectivityCheck::Always,
                        stall_limit: 40 * 22 + 2000,
                        ..Default::default()
                    },
                );
                match e.run_until_gathered(400 * count + 10_000) {
                    Ok(out) => {
                        eprintln!(
                            "{:>13} n={:<4} seed={} rounds={} ({:.2} rounds/robot)",
                            f.name(),
                            count,
                            seed,
                            out.rounds,
                            out.rounds as f64 / count as f64
                        );
                        actual.push((f.name(), n, seed, out.rounds, e.swarm.position_digest()));
                    }
                    Err(err) => panic!("{} n={} seed={}: {err}", f.name(), count, seed),
                }
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(f, n, seed, rounds, digest)| {
            format!("    ({f:?}, {n}, {seed}, {rounds}, {digest:#018x}),\n")
        })
        .collect();
    assert!(actual == PINNED, "FSYNC runs drifted from the pinned table; actual:\n{table}");
}
