//! Pinned digests of whole sweeps.
//!
//! Whole-model sweeps (`Explorer::explore_model`) and layer sweeps share
//! one capacity expansion; this suite pins the complete [`DseResult`] of
//! representative runs of both, so any change to that expansion (energy
//! summation order, skip and drop counting, best-point ties, the
//! every-61st sample, front insertion order) shows up as a digest
//! mismatch. Each digest is FNV-1a over the `Debug` text of the result
//! with the wall-clock fields zeroed; `Debug` prints every `f64` in its
//! shortest round-trip form, so equal digests mean bit-identical results.

use maestro_dnn::{zoo, Model};
use maestro_dse::checkpoint::fnv1a;
use maestro_dse::{variants, Constraints, DseResult, EvalMode, Explorer, SweepSpace};
use maestro_ir::Style;

/// FNV-1a of the `Debug` text of `r` with `seconds`/`rate` zeroed.
fn digest(mut r: DseResult) -> u64 {
    r.stats.seconds = 0.0;
    r.stats.rate = 0.0;
    fnv1a(format!("{r:?}").as_bytes())
}

fn model(name: &str) -> Model {
    zoo::by_name(name, 1).expect("zoo model")
}

/// Check the result of `sweep` against `want` and return it.
fn pinned(what: &str, want: u64, sweep: impl Fn() -> DseResult) -> DseResult {
    let r = sweep();
    assert!(r.stats.valid > 0, "{what}: empty sweep");
    let got = digest(r.clone());
    assert_eq!(got, want, "{what}: digest {got:#018x}, pinned {want:#018x}");
    r
}

/// Pin the whole-model sweep of `model` × `style` on `space`.
fn check(model: &Model, style: Style, space: SweepSpace, want: u64) -> DseResult {
    let ex = Explorer::new(space);
    let maps = variants::variants(style);
    pinned(&format!("{} {style}", model.name), want, || {
        ex.explore_model(model, &maps).expect("valid space")
    })
}

/// The pin exercises capacity skips, memo hits and the scatter sample.
fn assert_covers(r: &DseResult) {
    assert!(
        r.stats.capacity_skipped > 0 && r.stats.memo_hits > 0 && !r.sample.is_empty(),
        "the pin no longer covers skips, memo hits and samples: {:?}",
        r.stats
    );
}

#[test]
fn alexnet_digests_are_pinned() {
    let m = model("alexnet");
    check(&m, Style::KCP, SweepSpace::tiny(), 0x92ba_a4fb_f6f9_8f89);
    check(&m, Style::YRP, SweepSpace::tiny(), 0x08af_b956_f4c8_513c);
    check(&m, Style::XP, SweepSpace::tiny(), 0x2426_c6a3_ac1f_75e4);
    check(
        &m,
        Style::KCP,
        SweepSpace::standard(),
        0xd172_bab5_2b89_f865,
    );
    check(
        &m,
        Style::YRP,
        SweepSpace::standard(),
        0x6373_8f7d_6336_2220,
    );
    check(&m, Style::XP, SweepSpace::standard(), 0xaaea_938d_4294_37a0);
}

#[test]
fn vgg16_digests_are_pinned() {
    let m = model("vgg16");
    check(&m, Style::KCP, SweepSpace::tiny(), 0x1e05_c6c1_3c0b_8a2a);
    check(&m, Style::YRP, SweepSpace::tiny(), 0x333e_a6f5_168d_3a6e);
    check(&m, Style::XP, SweepSpace::tiny(), 0xb9b2_4b32_48ce_d215);
    assert_covers(&check(
        &m,
        Style::KCP,
        SweepSpace::standard(),
        0x6fa3_796d_2ba9_c001,
    ));
    assert_covers(&check(
        &m,
        Style::YRP,
        SweepSpace::standard(),
        0x67d7_71b5_6cae_3c03,
    ));
    check(&m, Style::XP, SweepSpace::standard(), 0x3eee_88e9_c58a_0d62);
}

#[test]
fn mobilenet_v2_digests_are_pinned() {
    let m = model("mobilenet_v2");
    check(&m, Style::KCP, SweepSpace::tiny(), 0x8ff7_a46f_ddfd_504b);
    check(&m, Style::YRP, SweepSpace::tiny(), 0x3b01_be0f_c270_7199);
    check(&m, Style::XP, SweepSpace::tiny(), 0x8ee9_b232_43dc_3bee);
    assert_covers(&check(
        &m,
        Style::KCP,
        SweepSpace::standard(),
        0x0fb8_3d7b_2f41_0c6a,
    ));
    assert_covers(&check(
        &m,
        Style::YRP,
        SweepSpace::standard(),
        0xcd2f_1e9d_ed69_b871,
    ));
    check(&m, Style::XP, SweepSpace::standard(), 0xa5a2_61cb_ec63_4881);
}

/// The paper's Fig 13 layer sweeps: KC-P and YR-P variants × VGG16
/// CONV2 and CONV11 on the standard space. The digests cover the
/// explored and valid counts (280,908 and 162,434 for KC-P on CONV2), so
/// a coverage or pruning change cannot pass as a faster sweep, and full
/// evaluation must land on the same digest as the staged default.
#[test]
fn fig13_layer_digests_are_pinned() {
    let vgg = model("vgg16");
    let ex = Explorer::new(SweepSpace::standard());
    let mut full = ex.clone();
    full.eval = EvalMode::Full;
    for (style, layer, want) in [
        (Style::KCP, "CONV2", 0x9323_50e9_62ce_ebd1),
        (Style::KCP, "CONV11", 0x1f81_8922_bf2b_42c5),
        (Style::YRP, "CONV2", 0xa18f_931c_bdab_88c3),
        (Style::YRP, "CONV11", 0x877a_21a5_0407_9733),
    ] {
        let layer = vgg.layer(layer).expect("zoo layer");
        let maps = variants::variants(style);
        let what = format!("{} {style}", layer.name);
        pinned(&what, want, || {
            ex.explore(layer, &maps).expect("valid space")
        });
        let oracle = full.explore(layer, &maps).expect("valid space");
        assert_eq!(digest(oracle), want, "{what}: full evaluation differs");
    }
}

/// Layer sweeps off the Fig 13 settings: 2-byte elements, a budget tight
/// enough to kill whole rows, and a sample cap every unit reaches, on a
/// standard convolution and a depth-wise one. Staged and full evaluation
/// must land on the same digest.
#[test]
fn capped_two_byte_layer_digests_are_pinned() {
    let vgg = model("vgg16");
    let mobilenet = model("mobilenet_v2");
    let mut ex = Explorer::new(SweepSpace::standard());
    ex.sample_cap = 100;
    ex.precision_bytes = 2;
    ex.constraints = Constraints {
        max_area_mm2: 8.0,
        max_power_mw: 250.0,
    };
    let mut full = ex.clone();
    full.eval = EvalMode::Full;
    for (m, layer, style, want) in [
        (&vgg, "CONV2", Style::KCP, 0xcea7_ac29_10b4_8d4f),
        (&vgg, "CONV2", Style::YRP, 0x5325_8b2e_f28d_7d87),
        (&vgg, "CONV2", Style::XP, 0xf4d0_b0cd_1a55_36d1),
        (&mobilenet, "BN2_1_dw", Style::KCP, 0xe096_f320_d43b_4da0),
        (&mobilenet, "BN2_1_dw", Style::YRP, 0x34e4_b0f1_e449_c17b),
        (&mobilenet, "BN2_1_dw", Style::XP, 0x0798_e320_0d0c_6f68),
    ] {
        let layer = m.layer(layer).expect("zoo layer");
        let maps = variants::variants(style);
        let what = format!("{} {style} (2-byte, capped)", layer.name);
        let r = pinned(&what, want, || {
            ex.explore(layer, &maps).expect("valid space")
        });
        assert_eq!(r.sample.len(), ex.sample_cap, "{what}: cap not reached");
        let oracle = full.explore(layer, &maps).expect("valid space");
        assert_eq!(digest(oracle), want, "{what}: full evaluation differs");
    }
}
