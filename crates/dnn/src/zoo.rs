//! Model zoo: the networks used in the paper's evaluation (§5, Table 4,
//! Figures 9-13): VGG16, AlexNet, ResNet-50, ResNeXt-50 (32x4d),
//! MobileNetV2, UNet and the DCGAN generator.
//!
//! Layer extents follow the standard published architectures. Convolutions
//! that are zero-padded in the original network are described with their
//! padded input extent (`y = (y' - 1) * stride + r`), so the derived output
//! extents match the published feature-map sizes exactly. UNet uses valid
//! (unpadded) convolutions, as in the original paper.
//!
//! ```
//! use maestro_dnn::zoo;
//! let m = zoo::vgg16(1);
//! assert_eq!(m.layer("CONV1").unwrap().dims.c, 3);
//! assert_eq!(m.layer("CONV13").unwrap().out_dims(), (14, 14));
//! ```

#![allow(clippy::items_after_test_module)] // helpers + tests precede the model builders
use crate::layer::{Density, Layer, LayerDims};
use crate::model::Model;
use crate::op::{Operator, OperatorClass};

/// Build a padded convolution layer: `k` filters over `c` channels with an
/// `rs`×`rs` kernel and the given stride, producing an `out`×`out` map.
fn conv(name: &str, n: u64, k: u64, c: u64, out: u64, rs: u64, stride: u64) -> Layer {
    let y = (out - 1) * stride + rs;
    let dims = LayerDims {
        n,
        k,
        c,
        y,
        x: y,
        r: rs,
        s: rs,
        stride_y: stride,
        stride_x: stride,
    };
    Layer::new(name, Operator::conv2d(), dims)
}

/// Grouped (aggregated-residual) convolution; `c` is channels *per group*.
#[allow(clippy::too_many_arguments)]
fn gconv(name: &str, n: u64, k: u64, c: u64, groups: u32, out: u64, rs: u64, stride: u64) -> Layer {
    let mut l = conv(name, n, k, c, out, rs, stride);
    l.op = Operator::Conv2d { groups };
    l
}

/// Point-wise (1×1) convolution.
fn pw(name: &str, n: u64, k: u64, c: u64, out: u64) -> Layer {
    conv(name, n, k, c, out, 1, 1)
}

/// Depth-wise 3×3 convolution over `c` channels.
fn dw(name: &str, n: u64, c: u64, out: u64, stride: u64) -> Layer {
    let y = (out - 1) * stride + 3;
    let dims = LayerDims {
        n,
        k: 1,
        c,
        y,
        x: y,
        r: 3,
        s: 3,
        stride_y: stride,
        stride_x: stride,
    };
    Layer::new(name, Operator::DepthwiseConv2d, dims)
}

/// Fully-connected layer with `k` outputs and `c` inputs.
fn fc(name: &str, n: u64, k: u64, c: u64) -> Layer {
    let dims = LayerDims {
        n,
        k,
        c,
        y: 1,
        x: 1,
        r: 1,
        s: 1,
        stride_y: 1,
        stride_x: 1,
    };
    Layer::new(name, Operator::FullyConnected, dims)
}

/// Residual (skip-connection) element-wise addition over a `k`×`yx`×`yx` map.
fn residual(name: &str, n: u64, k: u64, yx: u64) -> Layer {
    let dims = LayerDims {
        n,
        k,
        c: 1,
        y: yx,
        x: yx,
        r: 1,
        s: 1,
        stride_y: 1,
        stride_x: 1,
    };
    Layer::new(name, Operator::ElementwiseAdd, dims)
}

/// Transposed convolution that upsamples an `inp`×`inp` map by 2× with an
/// `rs`×`rs` kernel. Modeled as a dense convolution over the zero-upsampled
/// input with the structured input sparsity captured as density (1/4).
fn tconv(name: &str, n: u64, k: u64, c: u64, inp: u64, rs: u64) -> Layer {
    let out = inp * 2;
    let y = out + rs - 1;
    let dims = LayerDims {
        n,
        k,
        c,
        y,
        x: y,
        r: rs,
        s: rs,
        stride_y: 1,
        stride_x: 1,
    };
    let mut l = Layer::new(name, Operator::TransposedConv2d { upsample: 2 }, dims);
    l.density = Density {
        input: 0.25,
        weight: 1.0,
        output: 1.0,
    };
    l
}

/// VGG16 (Simonyan & Zisserman): 13 convolutions `CONV1..CONV13` and three
/// fully-connected layers. `CONV2` (64×64×224×224) and `CONV11`
/// (512×512×14×14) are the early/late layers used throughout the paper.
pub fn vgg16(batch: u64) -> Model {
    let n = batch;
    let mut m = Model::new("VGG16");
    m.extend([
        conv("CONV1", n, 64, 3, 224, 3, 1),
        conv("CONV2", n, 64, 64, 224, 3, 1),
        conv("CONV3", n, 128, 64, 112, 3, 1),
        conv("CONV4", n, 128, 128, 112, 3, 1),
        conv("CONV5", n, 256, 128, 56, 3, 1),
        conv("CONV6", n, 256, 256, 56, 3, 1),
        conv("CONV7", n, 256, 256, 56, 3, 1),
        conv("CONV8", n, 512, 256, 28, 3, 1),
        conv("CONV9", n, 512, 512, 28, 3, 1),
        conv("CONV10", n, 512, 512, 28, 3, 1),
        conv("CONV11", n, 512, 512, 14, 3, 1),
        conv("CONV12", n, 512, 512, 14, 3, 1),
        conv("CONV13", n, 512, 512, 14, 3, 1),
        fc("FC1", n, 4096, 25088),
        fc("FC2", n, 4096, 4096),
        fc("FC3", n, 1000, 4096),
    ]);
    m
}

/// AlexNet (Krizhevsky et al.): five convolutions, groups of two in
/// CONV2/4/5 as in the original two-GPU network, then three FC layers.
pub fn alexnet(batch: u64) -> Model {
    let n = batch;
    let mut m = Model::new("AlexNet");
    // CONV1 is unpadded 227x227 input, 11x11 stride 4 -> 55x55.
    let c1 = Layer::new(
        "CONV1",
        Operator::conv2d(),
        LayerDims {
            n,
            k: 96,
            c: 3,
            y: 227,
            x: 227,
            r: 11,
            s: 11,
            stride_y: 4,
            stride_x: 4,
        },
    );
    debug_assert!(c1.validate().is_ok(), "alexnet conv1 dims are fixed");
    m.push(c1);
    m.extend([
        gconv("CONV2", n, 256, 48, 2, 27, 5, 1),
        conv("CONV3", n, 384, 256, 13, 3, 1),
        gconv("CONV4", n, 384, 192, 2, 13, 3, 1),
        gconv("CONV5", n, 256, 192, 2, 13, 3, 1),
        fc("FC1", n, 4096, 9216),
        fc("FC2", n, 4096, 4096),
        fc("FC3", n, 1000, 4096),
    ]);
    m
}

/// One ResNet bottleneck: 1×1 reduce, 3×3, 1×1 expand, plus the residual
/// add; the first block of a stage also has a projection shortcut.
#[allow(clippy::too_many_arguments)]
fn bottleneck(
    m: &mut Model,
    prefix: &str,
    n: u64,
    cin: u64,
    mid: u64,
    cout: u64,
    out: u64,
    stride: u64,
    groups: u32,
    project: bool,
) {
    m.push(pw(
        &format!("{prefix}_a"),
        n,
        mid,
        cin,
        out * stride / stride,
    ));
    if groups > 1 {
        m.push(gconv(
            &format!("{prefix}_b"),
            n,
            mid,
            mid / u64::from(groups),
            groups,
            out,
            3,
            stride,
        ));
    } else {
        m.push(conv(&format!("{prefix}_b"), n, mid, mid, out, 3, stride));
    }
    m.push(pw(&format!("{prefix}_c"), n, cout, mid, out));
    if project {
        let mut proj = pw(&format!("{prefix}_proj"), n, cout, cin, out);
        proj.dims.stride_y = stride;
        proj.dims.stride_x = stride;
        proj.dims.y = (out - 1) * stride + 1;
        proj.dims.x = proj.dims.y;
        m.push(proj);
    }
    m.push(residual(&format!("{prefix}_add"), n, cout, out));
}

/// Shared skeleton for ResNet-50 and ResNeXt-50 (32×4d).
fn resnet50_like(name: &str, batch: u64, groups: u32, mid_scale: u64) -> Model {
    let n = batch;
    let mut m = Model::new(name);
    m.push(conv("CONV1", n, 64, 3, 112, 7, 2));
    // (stage, blocks, mid, cout, out)
    let stages: [(u32, u64, u64, u64, u64); 4] = [
        (2, 3, 64 * mid_scale, 256, 56),
        (3, 4, 128 * mid_scale, 512, 28),
        (4, 6, 256 * mid_scale, 1024, 14),
        (5, 3, 512 * mid_scale, 2048, 7),
    ];
    let mut cin = 64;
    for (stage, blocks, mid, cout, out) in stages {
        for b in 0..blocks {
            let stride = if b == 0 && stage > 2 { 2 } else { 1 };
            bottleneck(
                &mut m,
                &format!("CONV{stage}_{}", b + 1),
                n,
                cin,
                mid,
                cout,
                out,
                stride,
                groups,
                b == 0,
            );
            cin = cout;
        }
    }
    m.push(fc("FC1000", n, 1000, 2048));
    m
}

/// ResNet-50 (He et al.): 16 bottleneck blocks over four stages.
pub fn resnet50(batch: u64) -> Model {
    resnet50_like("ResNet50", batch, 1, 1)
}

/// ResNeXt-50 32×4d (Xie et al.): the ResNet-50 skeleton with 32-group
/// aggregated-residual 3×3 convolutions of doubled width.
pub fn resnext50(batch: u64) -> Model {
    resnet50_like("ResNeXt50", batch, 32, 2)
}

/// MobileNetV2 (Sandler et al.): inverted-residual bottlenecks built from
/// point-wise expansion, depth-wise 3×3 and point-wise projection.
pub fn mobilenet_v2(batch: u64) -> Model {
    let n = batch;
    let mut m = Model::new("MobileNetV2");
    m.push(conv("CONV1", n, 32, 3, 112, 3, 2));
    // (expansion t, output channels, repeats, first stride), input 112x112x32.
    let cfg: [(u64, u64, u64, u64); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut cin = 32;
    let mut size = 112;
    for (bi, (t, cout, reps, first_stride)) in cfg.iter().enumerate() {
        for r in 0..*reps {
            let stride = if r == 0 { *first_stride } else { 1 };
            let out = size / stride;
            let hidden = cin * t;
            let p = format!("BN{}_{}", bi + 1, r + 1);
            if *t != 1 {
                m.push(pw(&format!("{p}_expand"), n, hidden, cin, size));
            }
            m.push(dw(&format!("{p}_dw"), n, hidden, out, stride));
            m.push(pw(&format!("{p}_project"), n, *cout, hidden, out));
            if stride == 1 && cin == *cout {
                m.push(residual(&format!("{p}_add"), n, *cout, out));
            }
            cin = *cout;
            size = out;
        }
    }
    m.push(pw("CONV_LAST", n, 1280, 320, 7));
    m.push(fc("FC", n, 1000, 1280));
    m
}

/// UNet (Ronneberger et al.): the original valid-convolution segmentation
/// network with a 572×572 input, four down/up levels and 2×2 up-convolutions
/// (transposed convolutions).
pub fn unet(batch: u64) -> Model {
    let n = batch;
    let mut m = Model::new("UNet");
    let vconv = |name: &str, k: u64, c: u64, y: u64| {
        Layer::new(
            name,
            Operator::conv2d(),
            LayerDims {
                n,
                k,
                c,
                y,
                x: y,
                r: 3,
                s: 3,
                stride_y: 1,
                stride_x: 1,
            },
        )
    };
    // Encoder.
    m.push(vconv("ENC1_1", 64, 1, 572));
    m.push(vconv("ENC1_2", 64, 64, 570));
    m.push(vconv("ENC2_1", 128, 64, 284));
    m.push(vconv("ENC2_2", 128, 128, 282));
    m.push(vconv("ENC3_1", 256, 128, 140));
    m.push(vconv("ENC3_2", 256, 256, 138));
    m.push(vconv("ENC4_1", 512, 256, 68));
    m.push(vconv("ENC4_2", 512, 512, 66));
    m.push(vconv("BOT_1", 1024, 512, 32));
    m.push(vconv("BOT_2", 1024, 1024, 30));
    // Decoder: 2x2 up-convolutions followed by two valid 3x3 convolutions
    // over the concatenated (2x channel) maps.
    m.push(tconv("UP1", n, 512, 1024, 28, 2));
    m.push(vconv("DEC1_1", 512, 1024, 56));
    m.push(vconv("DEC1_2", 512, 512, 54));
    m.push(tconv("UP2", n, 256, 512, 52, 2));
    m.push(vconv("DEC2_1", 256, 512, 104));
    m.push(vconv("DEC2_2", 256, 256, 102));
    m.push(tconv("UP3", n, 128, 256, 100, 2));
    m.push(vconv("DEC3_1", 128, 256, 200));
    m.push(vconv("DEC3_2", 128, 128, 198));
    m.push(tconv("UP4", n, 64, 128, 196, 2));
    m.push(vconv("DEC4_1", 64, 128, 392));
    m.push(vconv("DEC4_2", 64, 64, 390));
    m.push(pw("OUT", n, 2, 64, 388));
    m
}

/// The DCGAN generator (Radford et al.): a stack of 2×-upsampling
/// transposed convolutions from a 4×4×1024 seed to a 64×64 RGB image.
pub fn dcgan(batch: u64) -> Model {
    let n = batch;
    let mut m = Model::new("DCGAN");
    m.push(fc("PROJECT", n, 1024 * 4 * 4, 100));
    m.push(tconv("TCONV1", n, 512, 1024, 4, 4));
    m.push(tconv("TCONV2", n, 256, 512, 8, 4));
    m.push(tconv("TCONV3", n, 128, 256, 16, 4));
    m.push(tconv("TCONV4", n, 3, 128, 32, 4));
    m
}

/// A zoo model builder: the model at the given batch size.
pub type Builder = fn(u64) -> Model;

/// The models [`by_name`] knows: each one's CLI names (the first, then
/// the common aliases) and its builder.
pub const NAMED: [(&[&str], Builder); 10] = [
    (&["vgg16"], vgg16),
    (&["alexnet"], alexnet),
    (&["resnet50"], resnet50),
    (&["resnext50"], resnext50),
    (&["mobilenet_v2", "mobilenetv2"], mobilenet_v2),
    (&["unet"], unet),
    (&["dcgan"], dcgan),
    (&["deepspeech2", "ds2"], deepspeech2),
    (&["googlenet"], googlenet),
    (&["efficientnet_b0", "efficientnet"], efficientnet_b0),
];

/// Look a zoo model up by its CLI name (accepting the common aliases);
/// `None` if the name is not a zoo model.
pub fn by_name(name: &str, batch: u64) -> Option<Model> {
    NAMED
        .iter()
        .find(|(names, _)| names.contains(&name))
        .map(|(_, build)| build(batch))
}

/// The five models used in Figure 10's dataflow case study.
pub fn figure10_models(batch: u64) -> Vec<Model> {
    vec![
        resnet50(batch),
        vgg16(batch),
        resnext50(batch),
        mobilenet_v2(batch),
        unet(batch),
    ]
}

/// A Table 4 row: an operator class with example layers drawn from the zoo.
#[derive(Debug, Clone)]
pub struct OperatorTableRow {
    /// The operator class.
    pub class: OperatorClass,
    /// `model/layer` names of example layers in the zoo.
    pub examples: Vec<String>,
}

/// Build paper Table 4: classify every layer of the given models and group
/// them by operator class (up to `max_examples` examples per class).
pub fn operator_table(models: &[Model], max_examples: usize) -> Vec<OperatorTableRow> {
    OperatorClass::ALL
        .iter()
        .map(|&class| {
            let mut examples = Vec::new();
            for m in models {
                for l in m.iter() {
                    if l.classify() == class && examples.len() < max_examples {
                        examples.push(format!("{}/{}", m.name, l.name));
                    }
                }
            }
            OperatorTableRow { class, examples }
        })
        .filter(|row| !row.examples.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::TensorKind;

    #[test]
    fn vgg16_shapes() {
        let m = vgg16(1);
        m.validate().unwrap();
        assert_eq!(m.len(), 16);
        let c2 = m.layer("CONV2").unwrap();
        assert_eq!((c2.dims.k, c2.dims.c), (64, 64));
        assert_eq!(c2.out_dims(), (224, 224));
        let c11 = m.layer("CONV11").unwrap();
        assert_eq!((c11.dims.k, c11.dims.c), (512, 512));
        assert_eq!(c11.out_dims(), (14, 14));
        // Published VGG16 conv MAC total is ~15.3 GMACs at batch 1.
        let conv_macs: u64 = m
            .iter()
            .filter(|l| matches!(l.op, Operator::Conv2d { .. }))
            .map(Layer::total_macs)
            .sum();
        assert!((14e9..17e9).contains(&(conv_macs as f64)), "{conv_macs}");
    }

    #[test]
    fn alexnet_shapes() {
        let m = alexnet(1);
        m.validate().unwrap();
        let c1 = m.layer("CONV1").unwrap();
        assert_eq!(c1.out_dims(), (55, 55));
        // ~0.7-1.2 GMACs for the conv layers.
        let conv_macs: u64 = m
            .iter()
            .filter(|l| matches!(l.op, Operator::Conv2d { .. }))
            .map(Layer::total_macs)
            .sum();
        assert!((0.5e9..1.5e9).contains(&(conv_macs as f64)), "{conv_macs}");
    }

    #[test]
    fn resnet50_totals() {
        let m = resnet50(1);
        m.validate().unwrap();
        // Published ResNet-50: ~3.8-4.1 GMACs.
        let macs = m.total_macs() as f64;
        assert!((3.0e9..5.0e9).contains(&macs), "{macs}");
        // 16 bottlenecks => 16 residual adds.
        let adds = m
            .iter()
            .filter(|l| l.op == Operator::ElementwiseAdd)
            .count();
        assert_eq!(adds, 16);
    }

    #[test]
    fn resnext50_has_grouped_convs() {
        let m = resnext50(1);
        m.validate().unwrap();
        let grouped = m
            .iter()
            .filter(|l| matches!(l.op, Operator::Conv2d { groups } if groups > 1))
            .count();
        assert_eq!(grouped, 16);
        // ResNeXt-50 32x4d: ~4.2 GMACs, close to ResNet-50.
        let macs = m.total_macs() as f64;
        assert!((3.2e9..5.5e9).contains(&macs), "{macs}");
    }

    #[test]
    fn mobilenet_v2_totals() {
        let m = mobilenet_v2(1);
        m.validate().unwrap();
        // Published MobileNetV2: ~0.3 GMACs.
        let macs = m.total_macs() as f64;
        assert!((0.2e9..0.5e9).contains(&macs), "{macs}");
        assert!(m.iter().any(|l| l.op == Operator::DepthwiseConv2d));
        // First bottleneck has t=1, so no expansion layer.
        assert!(m.layer("BN1_1_expand").is_none());
        assert!(m.layer("BN2_1_expand").is_some());
    }

    #[test]
    fn unet_shapes() {
        let m = unet(1);
        m.validate().unwrap();
        assert_eq!(m.layer("ENC1_1").unwrap().out_dims(), (570, 570));
        assert_eq!(m.layer("BOT_2").unwrap().out_dims(), (28, 28));
        assert_eq!(m.layer("UP1").unwrap().out_dims(), (56, 56));
        assert_eq!(m.layer("OUT").unwrap().out_dims(), (388, 388));
        // UNet is dominated by early-style wide layers.
        let macs = m.total_macs() as f64;
        assert!(macs > 100e9, "UNet should be tens of GMACs, got {macs}");
    }

    #[test]
    fn dcgan_shapes() {
        let m = dcgan(1);
        m.validate().unwrap();
        assert_eq!(m.layer("TCONV4").unwrap().out_dims(), (64, 64));
        let up = m.layer("TCONV1").unwrap();
        assert!(matches!(up.op, Operator::TransposedConv2d { upsample: 2 }));
        assert!((up.density.input - 0.25).abs() < 1e-12);
    }

    #[test]
    fn batch_scales_macs_linearly() {
        let m1 = vgg16(1);
        let m4 = vgg16(4);
        assert_eq!(m4.total_macs(), 4 * m1.total_macs());
        assert_eq!(
            m4.layer("CONV1")
                .unwrap()
                .tensor_elements(TensorKind::Input),
            4 * m1
                .layer("CONV1")
                .unwrap()
                .tensor_elements(TensorKind::Input)
        );
    }

    #[test]
    fn operator_table_covers_classes() {
        let models = figure10_models(1);
        let table = operator_table(&models, 3);
        let classes: Vec<_> = table.iter().map(|r| r.class).collect();
        assert!(classes.contains(&OperatorClass::EarlyConv));
        assert!(classes.contains(&OperatorClass::LateConv));
        assert!(classes.contains(&OperatorClass::Pointwise));
        assert!(classes.contains(&OperatorClass::Depthwise));
        assert!(classes.contains(&OperatorClass::AggregatedResidual));
        assert!(classes.contains(&OperatorClass::Residual));
        assert!(classes.contains(&OperatorClass::Transposed));
        for row in &table {
            assert!(row.examples.len() <= 3);
        }
    }

    #[test]
    fn deepspeech2_is_gemm_dominated() {
        let m = deepspeech2(1);
        m.validate().unwrap();
        let lstm_macs: u64 = m
            .iter()
            .filter(|l| l.op == Operator::FullyConnected)
            .map(Layer::total_macs)
            .sum();
        assert!(
            lstm_macs as f64 / m.total_macs() as f64 > 0.5,
            "LSTMs should dominate"
        );
        // One LSTM step: 4H x (H + I) MACs x seq.
        let l1 = m.layer("LSTM1").unwrap();
        assert_eq!(l1.total_macs(), 50 * 4 * 1024 * (1024 + 32 * 21));
    }

    #[test]
    fn pooling_builder() {
        let p = pool("p", 1, 64, 112, 2, 2);
        p.validate().unwrap();
        assert_eq!(p.out_dims(), (56, 56));
        assert_eq!(p.classify(), OperatorClass::Pooling);
        assert_eq!(p.tensor_elements(TensorKind::Weight), 1);
    }

    #[test]
    fn googlenet_shapes() {
        let m = googlenet(1);
        m.validate().unwrap();
        // Published GoogLeNet: ~1.5 GMACs of convolutions.
        let conv_macs: u64 = m
            .iter()
            .filter(|l| matches!(l.op, Operator::Conv2d { .. }))
            .map(Layer::total_macs)
            .sum();
        assert!((1.0e9..2.2e9).contains(&(conv_macs as f64)), "{conv_macs}");
        // Nine inception blocks x 7 layers each + stem/pools/fc.
        assert_eq!(m.iter().filter(|l| l.name.starts_with("INC")).count(), 63);
        assert_eq!(m.layer("INC5b_5x5").unwrap().out_dims(), (7, 7));
    }

    #[test]
    fn efficientnet_b0_shapes() {
        let m = efficientnet_b0(1);
        m.validate().unwrap();
        // Published EfficientNet-B0: ~0.39 GMACs; SE FCs are tiny.
        let macs = m.total_macs() as f64;
        assert!((0.25e9..0.6e9).contains(&macs), "{macs}");
        assert!(
            m.layer("MB3_1_dw").unwrap().dims.r == 5,
            "5x5 depthwise stage"
        );
        assert!(m.layer("MB2_1_se1").is_some(), "squeeze-excite present");
    }

    #[test]
    fn transformer_encoder_macs() {
        let m = transformer_encoder(1, 128);
        m.validate().unwrap();
        // Hand check: QKV = seq*3H*H; scores/context = heads*seq*seq*d each;
        // proj = seq*H*H; FFN = 2*seq*H*F.
        let (s, h, f, heads, d) = (128u64, 768u64, 3072u64, 12u64, 64u64);
        let expect = s * 3 * h * h + heads * s * s * d * 2 + s * h * h + 2 * s * h * f + 2 * s * h; // residual adds
        assert_eq!(m.total_macs(), expect);
    }

    #[test]
    fn all_zoo_models_validate() {
        for m in [
            vgg16(2),
            alexnet(2),
            resnet50(2),
            resnext50(2),
            mobilenet_v2(2),
            unet(2),
            dcgan(2),
            deepspeech2(2),
            googlenet(2),
            efficientnet_b0(2),
            transformer_encoder(2, 64),
        ] {
            m.validate()
                .unwrap_or_else(|(n, e)| panic!("{}/{n}: {e}", m.name));
        }
    }
}

/// An LSTM cell at one time step, modeled as the paper models LSTMs
/// (§4.4): a GEMM over the four stacked gates — `4·hidden` outputs from
/// `hidden + input` features, batched over `seq` time steps. The
/// element-wise gate activations are negligible next to the GEMMs and are
/// not modeled.
pub fn lstm_cell(name: &str, seq: u64, hidden: u64, input: u64) -> Layer {
    fc(name, seq, 4 * hidden, hidden + input)
}

/// A DeepSpeech2-flavoured speech model (Amodei et al., cited in the
/// paper's introduction): a strided convolutional front-end over
/// spectrogram frames followed by a stack of LSTM layers and a CTC
/// projection. Shapes follow the published "2 conv + 5 RNN, 1024 hidden"
/// configuration at a 100-frame utterance.
pub fn deepspeech2(batch: u64) -> Model {
    let n = batch;
    let seq = 100;
    let mut m = Model::new("DeepSpeech2");
    // Conv front-end over (freq=161, time) spectrograms; the published
    // 41x11 and 21x11 kernels with stride 2 in both dims.
    m.push(Layer::new(
        "CONV1",
        Operator::conv2d(),
        LayerDims {
            n,
            k: 32,
            c: 1,
            y: 161,
            x: seq + 10,
            r: 41,
            s: 11,
            stride_y: 2,
            stride_x: 2,
        },
    ));
    m.push(Layer::new(
        "CONV2",
        Operator::conv2d(),
        LayerDims {
            n,
            k: 32,
            c: 32,
            y: 61,
            x: seq / 2 + 10,
            r: 21,
            s: 11,
            stride_y: 2,
            stride_x: 1,
        },
    ));
    // Five LSTM layers, hidden 1024; the first consumes the flattened
    // conv features (32 channels x 21 frequency bands).
    m.push(lstm_cell("LSTM1", n * seq / 2, 1024, 32 * 21));
    for i in 2..=5 {
        m.push(lstm_cell(&format!("LSTM{i}"), n * seq / 2, 1024, 1024));
    }
    m.push(fc("CTC", n * seq / 2, 29, 1024));
    m
}

/// Max-pooling layer builder (single-operand window reduction).
pub fn pool(name: &str, n: u64, c: u64, y: u64, window: u64, stride: u64) -> Layer {
    Layer::new(
        name,
        Operator::Pooling,
        LayerDims {
            n,
            k: 1,
            c,
            y,
            x: y,
            r: window,
            s: window,
            stride_y: stride,
            stride_x: stride,
        },
    )
}

/// One GoogLeNet inception block: four parallel branches (1×1; 1×1→3×3;
/// 1×1→5×5; pool→1×1) whose outputs concatenate. Concatenation itself
/// moves no MACs and is not modeled as a layer.
#[allow(clippy::too_many_arguments)]
fn inception(
    m: &mut Model,
    name: &str,
    n: u64,
    cin: u64,
    out: u64,
    b1: u64,
    b3r: u64,
    b3: u64,
    b5r: u64,
    b5: u64,
    pp: u64,
) {
    m.push(pw(&format!("{name}_1x1"), n, b1, cin, out));
    m.push(pw(&format!("{name}_3x3r"), n, b3r, cin, out));
    m.push(conv(&format!("{name}_3x3"), n, b3, b3r, out, 3, 1));
    m.push(pw(&format!("{name}_5x5r"), n, b5r, cin, out));
    m.push(conv(&format!("{name}_5x5"), n, b5, b5r, out, 5, 1));
    m.push(pool(&format!("{name}_pool"), n, cin, out + 2, 3, 1));
    m.push(pw(&format!("{name}_poolproj"), n, pp, cin, out));
}

/// GoogLeNet / Inception-v1 (Szegedy et al.): the nine inception blocks
/// with their published branch widths, plus the stem and classifier.
pub fn googlenet(batch: u64) -> Model {
    let n = batch;
    let mut m = Model::new("GoogLeNet");
    m.push(conv("CONV1", n, 64, 3, 112, 7, 2));
    m.push(pool("POOL1", n, 64, 112, 3, 2));
    m.push(pw("CONV2r", n, 64, 64, 56));
    m.push(conv("CONV2", n, 192, 64, 56, 3, 1));
    m.push(pool("POOL2", n, 192, 56, 3, 2));
    // (name, cin, out, 1x1, 3x3r, 3x3, 5x5r, 5x5, poolproj)
    #[allow(clippy::type_complexity)]
    let blocks: [(&str, u64, u64, u64, u64, u64, u64, u64, u64); 9] = [
        ("INC3a", 192, 28, 64, 96, 128, 16, 32, 32),
        ("INC3b", 256, 28, 128, 128, 192, 32, 96, 64),
        ("INC4a", 480, 14, 192, 96, 208, 16, 48, 64),
        ("INC4b", 512, 14, 160, 112, 224, 24, 64, 64),
        ("INC4c", 512, 14, 128, 128, 256, 24, 64, 64),
        ("INC4d", 512, 14, 112, 144, 288, 32, 64, 64),
        ("INC4e", 528, 14, 256, 160, 320, 32, 128, 128),
        ("INC5a", 832, 7, 256, 160, 320, 32, 128, 128),
        ("INC5b", 832, 7, 384, 192, 384, 48, 128, 128),
    ];
    for (name, cin, out, b1, b3r, b3, b5r, b5, pp) in blocks {
        inception(&mut m, name, n, cin, out, b1, b3r, b3, b5r, b5, pp);
    }
    m.push(fc("FC", n, 1000, 1024));
    m
}

/// Depth-wise convolution with an arbitrary square kernel.
fn dwk(name: &str, n: u64, c: u64, out: u64, k: u64, stride: u64) -> Layer {
    let y = (out - 1) * stride + k;
    Layer::new(
        name,
        Operator::DepthwiseConv2d,
        LayerDims {
            n,
            k: 1,
            c,
            y,
            x: y,
            r: k,
            s: k,
            stride_y: stride,
            stride_x: stride,
        },
    )
}

/// EfficientNet-B0 (Tan & Le): MBConv blocks — point-wise expansion,
/// depth-wise 3×3/5×5, squeeze-and-excitation (two tiny FCs over pooled
/// channels), point-wise projection — with the published widths.
pub fn efficientnet_b0(batch: u64) -> Model {
    let n = batch;
    let mut m = Model::new("EfficientNetB0");
    m.push(conv("STEM", n, 32, 3, 112, 3, 2));
    // (expansion, kernel, cout, repeats, first stride)
    let cfg: [(u64, u64, u64, u64, u64); 7] = [
        (1, 3, 16, 1, 1),
        (6, 3, 24, 2, 2),
        (6, 5, 40, 2, 2),
        (6, 3, 80, 3, 2),
        (6, 5, 112, 3, 1),
        (6, 5, 192, 4, 2),
        (6, 3, 320, 1, 1),
    ];
    let mut cin = 32;
    let mut size = 112;
    for (bi, (t, k, cout, reps, first_stride)) in cfg.iter().enumerate() {
        for r in 0..*reps {
            let stride = if r == 0 { *first_stride } else { 1 };
            let out = size / stride;
            let hidden = cin * t;
            let p = format!("MB{}_{}", bi + 1, r + 1);
            if *t != 1 {
                m.push(pw(&format!("{p}_expand"), n, hidden, cin, size));
            }
            m.push(dwk(&format!("{p}_dw"), n, hidden, out, *k, stride));
            // Squeeze-and-excitation: global-pool then two FCs
            // (reduction ratio 4 of the block's input channels).
            let squeezed = (cin / 4).max(1);
            m.push(fc(&format!("{p}_se1"), n, squeezed, hidden));
            m.push(fc(&format!("{p}_se2"), n, hidden, squeezed));
            m.push(pw(&format!("{p}_project"), n, *cout, hidden, out));
            if stride == 1 && cin == *cout {
                m.push(residual(&format!("{p}_add"), n, *cout, out));
            }
            cin = *cout;
            size = out;
        }
    }
    m.push(pw("HEAD", n, 1280, 320, 7));
    m.push(fc("FC", n, 1000, 1280));
    m
}

/// A Transformer encoder block (BERT-base-like: hidden 768, 12 heads,
/// FFN 3072) over a `seq`-token sequence, lowered to the GEMM-class
/// operators the cost model understands: QKV/output projections, per-head
/// attention-score and attention-value GEMMs, and the two FFN layers.
/// Softmax/layernorm move negligible MACs and are not modeled.
pub fn transformer_encoder(batch: u64, seq: u64) -> Model {
    let n = batch;
    let hidden = 768u64;
    let heads = 12u64;
    let head_dim = hidden / heads;
    let ffn = 3072u64;
    let mut m = Model::new("TransformerEncoder");
    // Fused QKV projection: one GEMM with 3*hidden outputs per token.
    m.push(fc("QKV", n * seq, 3 * hidden, hidden));
    // Attention scores: for each head, Q(seq x d) x K^T(d x seq) — a GEMM
    // with seq "batch" rows, seq outputs, d reduction, repeated per head.
    m.push(fc("SCORES", n * heads * seq, seq, head_dim));
    // Attention-weighted values: scores(seq x seq) x V(seq x d).
    m.push(fc("CONTEXT", n * heads * seq, head_dim, seq));
    // Output projection and the FFN pair.
    m.push(fc("PROJ", n * seq, hidden, hidden));
    m.push(fc("FFN1", n * seq, ffn, hidden));
    m.push(fc("FFN2", n * seq, hidden, ffn));
    // Two residual links around attention and FFN.
    m.push(residual("ADD_ATTN", n * seq, hidden, 1));
    m.push(residual("ADD_FFN", n * seq, hidden, 1));
    m
}
