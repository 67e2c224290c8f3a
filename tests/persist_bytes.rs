//! The bytes proxim persists, pinned.
//!
//! Model files, `.pxm` store entries, and cache keys are all JSON written
//! by `proxim_obs::json`. A codec change that moved one byte of the cell or
//! technology encoding would silently re-key every on-disk model cache
//! (every lookup misses and re-characterizes, with no error), so the keys
//! are pinned here as constants. A model must also survive save → load →
//! save unchanged: loading is lossless, not merely close.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::CharacterizeOptions;
use proxim::model::persist::ModelCache;
use proxim::model::ProximityModel;

#[test]
fn cache_keys_are_pinned() {
    let tech = Technology::demo_5v();
    let opts = [
        ("fast", CharacterizeOptions::fast()),
        ("medium", CharacterizeOptions::medium()),
    ];
    // Keys per cell for [fast, medium].
    for (cell, want) in [
        (
            Cell::nand(2),
            [0x0ec4_05f1_623e_75aa_u64, 0x39af_1b4d_af68_4422],
        ),
        (
            Cell::nand(3),
            [0x9966_1b66_a6d3_90cc, 0x8ccc_d18a_ab9d_a770],
        ),
        (Cell::nor(2), [0xe5c1_3654_e942_b68e, 0xee5a_dd82_b3c9_e876]),
    ] {
        for ((opts_name, opts), want) in opts.iter().zip(want) {
            let key = ModelCache::key(&cell, &tech, opts).expect("key");
            assert_eq!(
                key,
                want,
                "{} {opts_name}: cache key {key:#018x} moved",
                cell.name()
            );
        }
    }
}

#[test]
fn fast_model_save_load_save_is_byte_identical() {
    let model = ProximityModel::characterize(
        &Cell::nand(2),
        &Technology::demo_5v(),
        &CharacterizeOptions::fast(),
    )
    .expect("characterization succeeds");
    let path =
        std::env::temp_dir().join(format!("proxim_persist_bytes_{}.json", std::process::id()));
    model.save(&path).expect("save");
    let first = std::fs::read(&path).expect("read back");
    let loaded = ProximityModel::load(&path).expect("load");
    loaded.save(&path).expect("save again");
    let second = std::fs::read(&path).expect("read back again");
    std::fs::remove_file(&path).ok();
    assert_eq!(first, model.to_json().expect("encode").into_bytes());
    assert!(first == second, "save → load → save changed the bytes");
}
