//! Qualitative paper-claim tests: the *shapes* of the evaluation results
//! (who wins, in which regime) that this reproduction must preserve.
//! EXPERIMENTS.md records the quantitative comparison.

use maestro::core::{analyze, analyze_model_with};
use maestro::dnn::{zoo, TensorKind};
use maestro::hw::{Accelerator, EnergyModel, ReuseSupport};
use maestro::ir::Style;
use maestro::sim::{validate_layer, SimOptions};

fn model_runtime(model: &maestro::dnn::Model, style: Style, acc: &Accelerator) -> f64 {
    analyze_model_with(model, acc, |l| {
        let df = style.dataflow();
        if analyze(l, &df, acc).is_ok() {
            df
        } else {
            Style::XP.dataflow()
        }
    })
    .expect("model analysis")
    .runtime()
}

/// §5.1: "KC-P dataflow style provides overall low runtime and energy".
#[test]
fn kcp_has_lowest_average_runtime_across_models() {
    let acc = Accelerator::paper_case_study();
    let models = zoo::figure10_models(1);
    let mut avg = [0.0f64; 5];
    for m in &models {
        // Normalize per model so no single network dominates the average.
        let runtimes: Vec<f64> = Style::ALL
            .iter()
            .map(|&s| model_runtime(m, s, &acc))
            .collect();
        let best = runtimes.iter().cloned().fold(f64::MAX, f64::min);
        for (i, r) in runtimes.iter().enumerate() {
            avg[i] += r / best;
        }
    }
    let kcp = avg[Style::ALL.iter().position(|s| *s == Style::KCP).unwrap()];
    for (i, style) in Style::ALL.iter().enumerate() {
        assert!(
            kcp <= avg[i] + 1e-9,
            "KC-P ({kcp:.2}) should beat {style} ({:.2}) on average",
            avg[i]
        );
    }
}

/// §1: C-P "may not achieve high utilization on layers with a small
/// number of channels".
#[test]
fn channel_partitioning_underutilizes_shallow_layers() {
    let acc = Accelerator::paper_case_study();
    let vgg = zoo::vgg16(1);
    let conv1 = vgg.layer("CONV1").expect("zoo layer"); // C = 3
    let r = analyze(conv1, &Style::CP.dataflow(), &acc).unwrap();
    assert!(r.utilization < 0.05, "C=3 on 256 PEs: {}", r.utilization);
    let conv11 = vgg.layer("CONV11").expect("zoo layer"); // C = 512
    let r = analyze(conv11, &Style::CP.dataflow(), &acc).unwrap();
    assert!(r.utilization > 0.9, "C=512 should fill the array");
}

/// Figure 11(c): point-wise convolution needs the most NoC bandwidth under
/// YX-P because 1x1 kernels have no convolutional (halo) reuse.
#[test]
fn pointwise_needs_more_bandwidth_than_standard_conv_under_yxp() {
    let acc = Accelerator::paper_case_study();
    let mobilenet = zoo::mobilenet_v2(1);
    let pw = mobilenet.layer("BN2_1_expand").expect("zoo layer");
    let vgg = zoo::vgg16(1);
    let conv = vgg.layer("CONV13").expect("zoo layer");
    let df = Style::YXP.dataflow();
    let bw_pw = analyze(pw, &df, &acc).unwrap().peak_bw;
    let bw_conv = analyze(conv, &df, &acc).unwrap().peak_bw;
    assert!(bw_pw > bw_conv * 2.0, "pointwise {bw_pw} vs 3x3 {bw_conv}");
}

/// §5.1: adaptive (per-layer best) dataflow beats every fixed dataflow.
#[test]
fn adaptive_dataflow_dominates_fixed_choices() {
    let acc = Accelerator::paper_case_study();
    let model = zoo::resnet50(1);
    let adaptive = analyze_model_with(&model, &acc, |l| {
        Style::ALL
            .iter()
            .map(|s| s.dataflow())
            .min_by(|a, b| {
                let ra = analyze(l, a, &acc).map(|r| r.runtime).unwrap_or(f64::MAX);
                let rb = analyze(l, b, &acc).map(|r| r.runtime).unwrap_or(f64::MAX);
                ra.total_cmp(&rb)
            })
            .expect("non-empty")
    })
    .unwrap()
    .runtime();
    for style in Style::ALL {
        let fixed = model_runtime(&model, style, &acc);
        assert!(
            adaptive <= fixed * 1.0001,
            "{style}: adaptive {adaptive} vs fixed {fixed}"
        );
    }
}

/// Table 5: removing multicast support inflates energy substantially at
/// similar throughput.
#[test]
fn no_multicast_costs_energy_not_throughput() {
    let vgg = zoo::vgg16(1);
    let conv2 = vgg.layer("CONV2").expect("zoo layer");
    let df = maestro::dse::variants::kcp_variant(8, 1, 1);
    let em = EnergyModel::cacti_28nm(2048, 1 << 20);
    let full = Accelerator::builder(56).noc_bandwidth(40).build();
    let none = Accelerator::builder(56)
        .noc_bandwidth(40)
        .support(ReuseSupport {
            multicast: maestro::hw::SpatialMulticast::None,
            reduction: maestro::hw::SpatialReduction::Fanin,
        })
        .build();
    let a = analyze(conv2, &df, &full).unwrap();
    let b = analyze(conv2, &df, &none).unwrap();
    assert!(
        b.energy(&em) > a.energy(&em) * 1.3,
        "energy should rise >30%: {} vs {}",
        b.energy(&em),
        a.energy(&em)
    );
    assert!(
        (b.throughput() / a.throughput()) > 0.8,
        "throughput roughly preserved"
    );
}

/// Figure 9: the analytical model tracks the step-exact simulator within a
/// few percent on the validation networks' conv layers.
#[test]
fn model_tracks_simulator_on_alexnet_conv_layers() {
    let acc = Accelerator::maeri_like(64);
    let alexnet = zoo::alexnet(1);
    for lname in ["CONV3", "CONV5"] {
        let l = alexnet.layer(lname).expect("zoo layer");
        let p = validate_layer(l, &Style::KCP.dataflow(), &acc, SimOptions::default())
            .unwrap_or_else(|e| panic!("{lname}: {e}"));
        assert_eq!(p.sim_macs, p.exact_macs, "{lname}: MAC conservation");
        assert!(
            p.runtime_error_pct() < 10.0,
            "{lname}: {:.2}% error",
            p.runtime_error_pct()
        );
    }
}

/// §4.4: uniform sparsity scales compute and traffic together.
#[test]
fn sparsity_reduces_energy_proportionally() {
    let acc = Accelerator::paper_case_study();
    let vgg = zoo::vgg16(1);
    let mut layer = vgg.layer("CONV8").expect("zoo layer").clone();
    let em = EnergyModel::normalized();
    let dense = analyze(&layer, &Style::KCP.dataflow(), &acc).unwrap();
    layer.density = maestro::dnn::Density {
        input: 0.5,
        weight: 0.5,
        output: 0.5,
    };
    let sparse = analyze(&layer, &Style::KCP.dataflow(), &acc).unwrap();
    let ratio = sparse.energy(&em) / dense.energy(&em);
    assert!(
        (0.2..0.6).contains(&ratio),
        "50% density should land near 25-50% energy, got {ratio}"
    );
}

/// §5.1 (Figure 11a/b): depth-wise convolution offers little reuse — the
/// achieved activation reuse sits close to its (small) algorithmic max.
#[test]
fn depthwise_has_little_exploitable_reuse() {
    let acc = Accelerator::paper_case_study();
    let m = zoo::mobilenet_v2(1);
    let dw = m.layer("BN2_1_dw").expect("zoo layer");
    let r = analyze(dw, &Style::XP.dataflow(), &acc).unwrap();
    assert!(
        r.algorithmic_max_reuse(TensorKind::Input) < 20.0,
        "depthwise activation reuse ceiling is inherently low: {}",
        r.algorithmic_max_reuse(TensorKind::Input)
    );
}

/// Weight-stationary styles fetch each weight from L2 approximately once
/// when the channel tile covers the layer.
#[test]
fn weight_stationarity_is_observable_in_l2_counts() {
    let acc = Accelerator::paper_case_study();
    let vgg = zoo::vgg16(1);
    let conv2 = vgg.layer("CONV2").expect("zoo layer"); // C=64 fits one tile
    let r = analyze(conv2, &Style::KCP.dataflow(), &acc).unwrap();
    let weights = conv2.tensor_elements(TensorKind::Weight) as f64;
    assert!(
        r.counts.l2_read[TensorKind::Weight] <= weights * 1.2,
        "{} vs {weights}",
        r.counts.l2_read[TensorKind::Weight]
    );
}

/// §4.4: "MAESTRO can model a variety of layers (LSTM hidden layer,
/// pooling, fully-connected, transposed convolution...)". Exercise them
/// all end to end on the DeepSpeech2-style model and UNet.
#[test]
fn non_conv_operators_analyze_end_to_end() {
    let acc = Accelerator::paper_case_study();
    let ds2 = zoo::deepspeech2(1);
    let r = analyze_model_with(&ds2, &acc, |l| {
        let df = Style::KCP.dataflow();
        if analyze(l, &df, &acc).is_ok() {
            df
        } else {
            Style::XP.dataflow()
        }
    })
    .expect("DeepSpeech2 analyzes");
    assert!(r.runtime() > 0.0);
    // The LSTM GEMMs dominate runtime (they dominate the MACs).
    let lstm_rt: f64 = r
        .layers
        .iter()
        .filter(|l| l.layer.starts_with("LSTM"))
        .map(|l| l.runtime)
        .sum();
    assert!(
        lstm_rt / r.runtime() > 0.4,
        "LSTM share {}",
        lstm_rt / r.runtime()
    );
    // Transposed convolutions (UNet's up-convolutions) carry their
    // structured-sparsity discount into the analysis.
    let unet = zoo::unet(1);
    let up = unet.layer("UP1").expect("zoo layer");
    let rep = analyze(up, &Style::XP.dataflow(), &acc).unwrap();
    assert!(
        rep.macs_effective < rep.macs_dense * 0.3,
        "upsampled zeros should discount MACs: {} vs {}",
        rep.macs_effective,
        rep.macs_dense
    );
}

/// The tuner (auto-tuned per-layer mappings with tile variants) is at
/// least as good as plain per-style adaptivity.
#[test]
fn tuner_beats_style_level_adaptivity() {
    use maestro::dse::{tune_model, Objective};
    let model = zoo::alexnet(1);
    let acc = Accelerator::paper_case_study();
    let adaptive = analyze_model_with(&model, &acc, |l| {
        Style::ALL
            .iter()
            .map(|s| s.dataflow())
            .min_by(|a, b| {
                let ra = analyze(l, a, &acc).map(|r| r.runtime).unwrap_or(f64::MAX);
                let rb = analyze(l, b, &acc).map(|r| r.runtime).unwrap_or(f64::MAX);
                ra.total_cmp(&rb)
            })
            .expect("non-empty")
    })
    .unwrap()
    .runtime();
    let tuned = tune_model(&model, &acc, Objective::Runtime)
        .expect("every AlexNet layer maps")
        .runtime();
    assert!(
        tuned <= adaptive * 1.0001,
        "tuned {tuned} vs adaptive {adaptive}"
    );
}

/// Vector (wide-MAC) PEs raise compute-bound throughput: a TPU-like
/// 16-lane configuration beats a scalar one of equal PE count on a
/// GEMM-heavy transformer block.
#[test]
fn vector_width_raises_gemm_throughput() {
    let model = zoo::transformer_encoder(1, 128);
    let scalar = Accelerator::builder(64).build();
    let tpu = Accelerator::tpu_like(64);
    let mut scalar_rt = 0.0;
    let mut tpu_rt = 0.0;
    for layer in model.iter() {
        let df = Style::KCP.dataflow();
        let pick = |acc: &Accelerator| {
            analyze(layer, &df, acc)
                .or_else(|_| analyze(layer, &Style::XP.dataflow(), acc))
                .expect("some dataflow maps")
                .runtime
        };
        scalar_rt += pick(&scalar);
        tpu_rt += pick(&tpu);
    }
    assert!(
        tpu_rt < scalar_rt / 2.0,
        "16-lane PEs should be far faster: {tpu_rt} vs {scalar_rt}"
    );
}
