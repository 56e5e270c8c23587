//! Layer descriptions: dimension sizes, strides, sparsity, derived counts.

use crate::coupling::{Coupling, TensorKind};
use crate::dim::{Dim, DimSizes};
use crate::op::{Operator, OperatorClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The seven dimension sizes of a layer plus its spatial strides.
///
/// `y`/`x` are *input* extents; output extents are derived with the
/// standard valid-convolution rule `y' = (y - r) / stride + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerDims {
    /// Batch size.
    pub n: u64,
    /// Output channels (total, across all groups).
    pub k: u64,
    /// Input channels (per group, for grouped convolution).
    pub c: u64,
    /// Input rows.
    pub y: u64,
    /// Input columns.
    pub x: u64,
    /// Filter rows.
    pub r: u64,
    /// Filter columns.
    pub s: u64,
    /// Vertical stride.
    pub stride_y: u64,
    /// Horizontal stride.
    pub stride_x: u64,
}

impl LayerDims {
    /// Square-image, square-kernel, unit-stride constructor.
    pub const fn square(n: u64, k: u64, c: u64, yx: u64, rs: u64) -> Self {
        LayerDims {
            n,
            k,
            c,
            y: yx,
            x: yx,
            r: rs,
            s: rs,
            stride_y: 1,
            stride_x: 1,
        }
    }

    /// Output rows: `(y - r) / stride_y + 1`.
    pub const fn out_y(&self) -> u64 {
        out_extent(self.y, self.r, self.stride_y)
    }

    /// Output columns: `(x - s) / stride_x + 1`.
    pub const fn out_x(&self) -> u64 {
        out_extent(self.x, self.s, self.stride_x)
    }

    /// The seven sizes as a [`DimSizes`] (input-centric; strides dropped).
    pub const fn sizes(&self) -> DimSizes {
        DimSizes::new(self.n, self.k, self.c, self.y, self.x, self.r, self.s)
    }

    /// Stride along dimension `d` (1 for non-spatial dims).
    pub const fn stride(&self, d: Dim) -> u64 {
        match d {
            Dim::Y => self.stride_y,
            Dim::X => self.stride_x,
            _ => 1,
        }
    }
}

/// Output extent of a sliding window: `(input - window) / stride + 1`.
///
/// Saturates at zero when the window does not fit.
pub const fn out_extent(input: u64, window: u64, stride: u64) -> u64 {
    if input < window || stride == 0 {
        0
    } else {
        (input - window) / stride + 1
    }
}

/// Uniform density (1 − sparsity) of each tensor, in `[0, 1]`.
///
/// MAESTRO models uniformly distributed sparsity (paper §4.4): the MAC
/// count and per-tensor traffic are scaled by the relevant densities.
/// Transposed convolutions use this to account for the structured zeros
/// introduced by upsampling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Density {
    /// Fraction of non-zero input activations.
    pub input: f64,
    /// Fraction of non-zero weights.
    pub weight: f64,
    /// Fraction of output elements actually produced.
    pub output: f64,
}

impl Density {
    /// Fully dense tensors.
    pub const fn dense() -> Self {
        Density {
            input: 1.0,
            weight: 1.0,
            output: 1.0,
        }
    }

    /// Density for the tensor of the given kind.
    pub const fn of(&self, kind: TensorKind) -> f64 {
        match kind {
            TensorKind::Input => self.input,
            TensorKind::Weight => self.weight,
            TensorKind::Output => self.output,
        }
    }

    /// Fraction of MACs that touch non-zero operands (input × weight
    /// density under the uniform-distribution assumption).
    pub const fn mac_fraction(&self) -> f64 {
        self.input * self.weight
    }

    /// `true` when every component lies in `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        let ok = |v: f64| (0.0..=1.0).contains(&v);
        ok(self.input) && ok(self.weight) && ok(self.output)
    }
}

impl Default for Density {
    fn default() -> Self {
        Self::dense()
    }
}

/// Error produced when a layer description is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerError {
    /// A dimension size is zero.
    ZeroDim(Dim),
    /// The filter window is larger than the input (`r > y` or `s > x`).
    WindowTooLarge {
        /// Window dimension (R or S).
        window: Dim,
        /// Window size.
        size: u64,
        /// Input extent it must fit into.
        input: u64,
    },
    /// A stride is zero.
    ZeroStride(Dim),
    /// A density value is outside `[0, 1]`.
    InvalidDensity,
    /// Grouped convolution with zero groups or `k` not divisible by groups.
    InvalidGroups {
        /// Number of groups requested.
        groups: u32,
        /// Output-channel count that must be divisible by `groups`.
        k: u64,
    },
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerError::ZeroDim(d) => write!(f, "dimension {d} has size zero"),
            LayerError::WindowTooLarge {
                window,
                size,
                input,
            } => write!(
                f,
                "filter window {window}={size} does not fit in input extent {input}"
            ),
            LayerError::ZeroStride(d) => write!(f, "stride along {d} is zero"),
            LayerError::InvalidDensity => write!(f, "density values must lie in [0, 1]"),
            LayerError::InvalidGroups { groups, k } => {
                write!(f, "invalid group count {groups} for K={k}")
            }
        }
    }
}

impl std::error::Error for LayerError {}

/// One layer of a DNN model: an operator, its dimension sizes, and the
/// tensor densities.
///
/// ```
/// use maestro_dnn::{Layer, LayerDims, Operator};
///
/// let l = Layer::new("conv", Operator::conv2d(), LayerDims::square(1, 64, 3, 224, 3));
/// assert_eq!(l.out_dims().0, 222);
/// assert_eq!(l.total_macs(), 64 * 3 * 222 * 222 * 9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Layer name, unique within a model.
    pub name: String,
    /// Operator type.
    pub op: Operator,
    /// Dimension sizes and strides.
    pub dims: LayerDims,
    /// Uniform tensor densities.
    pub density: Density,
    /// Optional custom dimension coupling, overriding the operator's
    /// (paper §4.1: "MAESTRO allows users to specify tensors with
    /// arbitrary dimension coupling ... which provides generality").
    pub coupling_override: Option<Coupling>,
}

impl Layer {
    /// Create a fully dense layer.
    pub fn new(name: impl Into<String>, op: Operator, dims: LayerDims) -> Self {
        Layer {
            name: name.into(),
            op,
            dims,
            density: Density::dense(),
            coupling_override: None,
        }
    }

    /// Returns a copy computing under a custom dimension coupling instead
    /// of the operator's default (the Tensor Analysis engine consumes the
    /// coupling, so every downstream estimate follows it).
    #[must_use]
    pub fn with_coupling(mut self, coupling: Coupling) -> Self {
        self.coupling_override = Some(coupling);
        self
    }

    /// Returns a copy with the given densities.
    #[must_use]
    pub fn with_density(mut self, density: Density) -> Self {
        self.density = density;
        self
    }

    /// Validate the layer description.
    ///
    /// # Errors
    ///
    /// Returns a [`LayerError`] when any dimension or stride is zero, the
    /// filter window does not fit the input, a density is out of range, or
    /// the group count is inconsistent.
    pub fn validate(&self) -> Result<(), LayerError> {
        let d = &self.dims;
        for (dim, size) in d.sizes().iter() {
            if size == 0 {
                return Err(LayerError::ZeroDim(dim));
            }
        }
        if d.r > d.y {
            return Err(LayerError::WindowTooLarge {
                window: Dim::R,
                size: d.r,
                input: d.y,
            });
        }
        if d.s > d.x {
            return Err(LayerError::WindowTooLarge {
                window: Dim::S,
                size: d.s,
                input: d.x,
            });
        }
        if d.stride_y == 0 {
            return Err(LayerError::ZeroStride(Dim::Y));
        }
        if d.stride_x == 0 {
            return Err(LayerError::ZeroStride(Dim::X));
        }
        if !self.density.is_valid() {
            return Err(LayerError::InvalidDensity);
        }
        if let Operator::Conv2d { groups } = self.op {
            if groups == 0 || !self.dims.k.is_multiple_of(u64::from(groups)) {
                return Err(LayerError::InvalidGroups {
                    groups,
                    k: self.dims.k,
                });
            }
        }
        Ok(())
    }

    /// The layer's dimension coupling: the custom override when present,
    /// the operator's default otherwise.
    pub fn coupling(&self) -> Coupling {
        self.coupling_override.unwrap_or_else(|| self.op.coupling())
    }

    /// Output spatial extents `(y', x')`.
    pub fn out_dims(&self) -> (u64, u64) {
        (self.dims.out_y(), self.dims.out_x())
    }

    /// Number of elements of a tensor, honoring the operator's coupling.
    /// [`tensor_sizes`](Layer::tensor_sizes) gives all three at once.
    pub fn tensor_elements(&self, kind: TensorKind) -> u64 {
        self.tensor_sizes()[kind as usize]
    }

    /// Number of elements of each tensor, indexed by `TensorKind as usize`
    /// (Input, Weight, Output), honoring the operator's coupling.
    ///
    /// For grouped convolution the input tensor spans all `groups × C`
    /// channels while the per-filter weight spans only `C`.
    pub fn tensor_sizes(&self) -> [u64; 3] {
        let d = &self.dims;
        let coupling = self.coupling();
        let sizes = d.sizes();
        let (out_y, out_x) = (d.out_y(), d.out_x());
        let groups = match self.op {
            Operator::Conv2d { groups } => u64::from(groups),
            _ => 1,
        };
        TensorKind::ALL.map(|kind| {
            let mut count = 1u64;
            for dim in coupling.coupled(kind).iter() {
                let size = match (kind, dim) {
                    // Output spatial extents are derived from the window
                    // pairs; count the pair once (on the Y/X half).
                    (TensorKind::Output, Dim::Y) => out_y,
                    (TensorKind::Output, Dim::X) => out_x,
                    (TensorKind::Output, Dim::R) | (TensorKind::Output, Dim::S) => 1,
                    (_, dim) => sizes.get(dim),
                };
                count *= size;
            }
            if kind == TensorKind::Input {
                count *= groups;
            }
            count
        })
    }

    /// Total multiply-accumulate (or element-op) count of the dense layer.
    pub fn total_macs(&self) -> u64 {
        let d = &self.dims;
        let coupling = self.coupling();
        let mut macs = d.n;
        if coupling.input.contains(Dim::Y) || coupling.output.contains(Dim::Y) {
            macs *= d.out_y() * d.out_x();
        }
        if coupling.is_coupled(TensorKind::Weight, Dim::K)
            || coupling.is_coupled(TensorKind::Output, Dim::K)
        {
            macs *= d.k;
        }
        if coupling.is_coupled(TensorKind::Input, Dim::C) {
            macs *= d.c;
        }
        if coupling.weight.contains(Dim::R) || coupling.output.contains(Dim::R) {
            macs *= d.r * d.s;
        }
        macs
    }

    /// Total MACs scaled by operand densities (effective work with
    /// uniformly distributed sparsity).
    pub fn effective_macs(&self) -> f64 {
        self.total_macs() as f64 * self.density.mac_fraction()
    }

    /// Classify this layer into paper Table 4's operator classes.
    pub fn classify(&self) -> OperatorClass {
        match self.op {
            Operator::Conv2d { groups } if groups > 1 => OperatorClass::AggregatedResidual,
            Operator::Conv2d { .. } => {
                if self.dims.r == 1 && self.dims.s == 1 {
                    OperatorClass::Pointwise
                } else if self.dims.c > self.dims.y {
                    // Paper footnote 2: "If C > Y, late layer. Else, early".
                    OperatorClass::LateConv
                } else {
                    OperatorClass::EarlyConv
                }
            }
            Operator::DepthwiseConv2d => OperatorClass::Depthwise,
            Operator::TransposedConv2d { .. } => OperatorClass::Transposed,
            Operator::FullyConnected => OperatorClass::FullyConnected,
            Operator::Pooling => OperatorClass::Pooling,
            Operator::ElementwiseAdd => OperatorClass::Residual,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &self.dims;
        write!(
            f,
            "{} [{}] N{} K{} C{} Y{} X{} R{} S{} s{}x{}",
            self.name, self.op, d.n, d.k, d.c, d.y, d.x, d.r, d.s, d.stride_y, d.stride_x
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Layer {
        // The Figure 1 example layer: N2 K4 C6 Y8 X8 R3 S3.
        Layer::new("fig1", Operator::conv2d(), LayerDims::square(2, 4, 6, 8, 3))
    }

    #[test]
    fn out_extent_rules() {
        assert_eq!(out_extent(8, 3, 1), 6);
        assert_eq!(out_extent(224, 3, 1), 222);
        assert_eq!(out_extent(227, 11, 4), 55);
        assert_eq!(out_extent(2, 3, 1), 0, "window larger than input");
        assert_eq!(out_extent(8, 3, 0), 0, "zero stride saturates");
    }

    #[test]
    fn figure1_example_counts() {
        let l = toy();
        assert_eq!(l.out_dims(), (6, 6));
        assert_eq!(l.total_macs(), 2 * 4 * 6 * 6 * 6 * 3 * 3);
        assert_eq!(l.tensor_elements(TensorKind::Input), 2 * 6 * 8 * 8);
        assert_eq!(l.tensor_elements(TensorKind::Weight), 4 * 6 * 3 * 3);
        assert_eq!(l.tensor_elements(TensorKind::Output), 2 * 4 * 6 * 6);
        l.validate().unwrap();
    }

    #[test]
    fn depthwise_counts() {
        let l = Layer::new(
            "dw",
            Operator::DepthwiseConv2d,
            LayerDims::square(1, 1, 32, 16, 3),
        );
        assert_eq!(l.total_macs(), 32 * 14 * 14 * 9);
        assert_eq!(l.tensor_elements(TensorKind::Weight), 32 * 9);
        assert_eq!(l.tensor_elements(TensorKind::Output), 32 * 14 * 14);
    }

    #[test]
    fn fully_connected_counts() {
        let mut dims = LayerDims::square(4, 1000, 4096, 1, 1);
        dims.r = 1;
        dims.s = 1;
        let l = Layer::new("fc", Operator::FullyConnected, dims);
        assert_eq!(l.total_macs(), 4 * 1000 * 4096);
        assert_eq!(l.tensor_elements(TensorKind::Weight), 1000 * 4096);
        assert_eq!(l.tensor_elements(TensorKind::Input), 4 * 4096);
    }

    #[test]
    fn grouped_conv_counts() {
        // ResNeXt-style: K=128 total filters, 32 groups, 4 channels/group.
        let l = Layer::new(
            "agg",
            Operator::Conv2d { groups: 32 },
            LayerDims::square(1, 128, 4, 56, 3),
        );
        assert_eq!(l.total_macs(), 128 * 4 * 54 * 54 * 9);
        // Input spans all 32*4 = 128 channels.
        assert_eq!(l.tensor_elements(TensorKind::Input), 128 * 56 * 56);
        l.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_layers() {
        let mut l = toy();
        l.dims.c = 0;
        assert_eq!(l.validate(), Err(LayerError::ZeroDim(Dim::C)));

        let mut l = toy();
        l.dims.r = 10;
        assert!(matches!(
            l.validate(),
            Err(LayerError::WindowTooLarge { window: Dim::R, .. })
        ));

        let mut l = toy();
        l.dims.stride_x = 0;
        assert_eq!(l.validate(), Err(LayerError::ZeroStride(Dim::X)));

        let mut l = toy();
        l.density.weight = 1.5;
        assert_eq!(l.validate(), Err(LayerError::InvalidDensity));

        let mut l = toy();
        l.op = Operator::Conv2d { groups: 3 };
        assert!(matches!(
            l.validate(),
            Err(LayerError::InvalidGroups { .. })
        ));
    }

    #[test]
    fn density_scales_macs() {
        let l = toy().with_density(Density {
            input: 0.5,
            weight: 0.5,
            output: 1.0,
        });
        let dense = l.total_macs() as f64;
        assert!((l.effective_macs() - dense * 0.25).abs() < 1e-9);
    }

    #[test]
    fn classification_rules() {
        // Early: C (3) <= Y (224).
        let early = Layer::new("e", Operator::conv2d(), LayerDims::square(1, 64, 3, 224, 3));
        assert_eq!(early.classify(), OperatorClass::EarlyConv);
        // Late: C (512) > Y (14).
        let late = Layer::new(
            "l",
            Operator::conv2d(),
            LayerDims::square(1, 512, 512, 14, 3),
        );
        assert_eq!(late.classify(), OperatorClass::LateConv);
        // Pointwise: 1x1 kernel.
        let pw = Layer::new("p", Operator::conv2d(), LayerDims::square(1, 64, 16, 56, 1));
        assert_eq!(pw.classify(), OperatorClass::Pointwise);
        let g = Layer::new(
            "g",
            Operator::Conv2d { groups: 32 },
            LayerDims::square(1, 128, 4, 56, 3),
        );
        assert_eq!(g.classify(), OperatorClass::AggregatedResidual);
    }

    #[test]
    fn display_contains_shape() {
        let s = toy().to_string();
        assert!(s.contains("K4"));
        assert!(s.contains("CONV2D"));
    }
}
