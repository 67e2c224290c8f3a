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
            [0xd679_d658_94e1_c730_u64, 0x698b_583d_50bd_7a04],
        ),
        (
            Cell::nand(3),
            [0xb384_6d2a_0597_265e, 0xd8e8_cb2f_23cb_8a06],
        ),
        (Cell::nor(2), [0x9c07_3351_c3ab_144c, 0xbc89_16d9_6c0a_eef0]),
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
