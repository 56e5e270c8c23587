//! Whole-model units build each (distinct layer shape, mapping) once.
//!
//! A whole-model unit takes a repeated layer's prices from the first layer
//! of its shape, and under staged evaluation prices every bandwidth from
//! one build per (shape, mapping). Sweep digests cannot see builds, so
//! this suite counts them in `maestro.analysis.calls`. That counter is
//! process-global, so the suite holds exactly one test: another test
//! running beside it would add to the count.

use maestro_core::ShapeKey;
use maestro_dnn::zoo;
use maestro_dse::{variants, EvalMode, Explorer, SweepSpace};
use maestro_ir::Style;
use std::collections::HashSet;

#[test]
fn whole_model_units_build_each_shape_and_mapping_once() {
    let calls = maestro_obs::registry().counter("maestro.analysis.calls");
    for (name, style, staged, full) in [
        ("vgg16", Style::KCP, 324, 972),
        ("mobilenet_v2", Style::YRP, 972, 2_916),
    ] {
        let model = zoo::by_name(name, 1).expect("zoo model");
        let maps = variants::variants(style);
        let shapes: HashSet<ShapeKey> = model.iter().filter_map(ShapeKey::of).collect();
        for (eval, want) in [(EvalMode::Staged, staged), (EvalMode::Full, full)] {
            let mut ex = Explorer::new(SweepSpace::tiny());
            ex.eval = eval;
            let before = calls.get();
            let r = ex.explore_model(&model, &maps).expect("valid space");
            let built = calls.get() - before;
            assert_eq!(built, want, "{name} {style} {eval}: builds");
            let expected = match eval {
                EvalMode::Staged => (ex.space.pes.len() * shapes.len() * maps.len()) as u64,
                EvalMode::Full => r.stats.evaluated,
            };
            assert_eq!(built, expected, "{name} {style} {eval}: {:?}", r.stats);
        }
    }
}
