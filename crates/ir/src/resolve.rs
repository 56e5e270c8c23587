//! Binding a dataflow to a concrete layer and PE count.
//!
//! This implements the structural half of the paper's Cluster Analysis
//! engine (§4.1): splitting the directive list into cluster levels,
//! counting sub-units per level, evaluating size expressions against the
//! layer's dimensions, clamping map sizes, and inferring omitted directives
//! (a dimension not mapped at a level is fully resident there, i.e. an
//! implicit `TemporalMap(size, size)` in the innermost position).

use crate::dataflow::Dataflow;
use crate::directive::{Directive, MapKind};
use maestro_dnn::coupling::DimSet;
use maestro_dnn::{Dim, DimSizes, Layer, ALL_DIMS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A map directive with its size expressions evaluated and clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedMap {
    /// Spatial or temporal.
    pub kind: MapKind,
    /// The mapped dimension.
    pub dim: Dim,
    /// Mapped chunk size (clamped to the level's dimension size, ≥ 1).
    pub size: u64,
    /// Chunk start shift between consecutive units / time steps (≥ 1).
    pub offset: u64,
    /// `true` when this map was inferred rather than written by the user.
    pub inferred: bool,
}

impl ResolvedMap {
    /// Number of chunks this map produces over a dimension of size `dim_size`:
    /// `ceil((dim_size - size) / offset) + 1`.
    pub fn num_chunks(&self, dim_size: u64) -> u64 {
        if self.size >= dim_size {
            1
        } else {
            (dim_size - self.size).div_ceil(self.offset) + 1
        }
    }

    /// The chunk (start, len) at index `i` over a dimension of `dim_size`.
    ///
    /// The final chunk is truncated at the dimension boundary (the "edge"
    /// iteration case of the paper).
    pub fn chunk(&self, i: u64, dim_size: u64) -> (u64, u64) {
        let start = (i * self.offset).min(dim_size.saturating_sub(1));
        let len = self.size.min(dim_size - start);
        (start, len)
    }
}

impl fmt::Display for ResolvedMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({},{}) {}",
            self.kind, self.size, self.offset, self.dim
        )
    }
}

/// One cluster level of a resolved dataflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedLevel {
    /// Maps in data-movement order (outer first). Every dimension appears
    /// exactly once; inferred full-coverage maps are appended innermost.
    pub maps: Vec<ResolvedMap>,
    /// Number of sub-units (sub-clusters, or PEs at the innermost level)
    /// within one instance of this level.
    pub num_units: u64,
    /// Dimension sizes visible at this level (the outer level's mapped
    /// chunk sizes; the layer's sizes at the top level).
    pub dims: DimSizes,
}

impl ResolvedLevel {
    /// The map for dimension `d`. Resolution guarantees every dimension is
    /// mapped, so this is `Some` for any `ResolvedLevel` produced by
    /// [`resolve`]; hand-built levels may omit dimensions.
    pub fn map(&self, d: Dim) -> Option<&ResolvedMap> {
        self.maps.iter().find(|m| m.dim == d)
    }

    /// Maps that are spatial at this level, in order.
    pub fn spatial_maps(&self) -> impl Iterator<Item = &ResolvedMap> + '_ {
        self.maps.iter().filter(|m| m.kind == MapKind::Spatial)
    }

    /// The chunk sizes of every map (steady-state footprint sizes).
    pub fn mapped_sizes(&self) -> DimSizes {
        let mut s = DimSizes::ones();
        for m in &self.maps {
            s.set(m.dim, m.size.min(self.dims.get(m.dim)));
        }
        s
    }
}

/// A dataflow bound to a layer and a PE count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resolved {
    /// Cluster levels, outermost first. Always at least one.
    pub levels: Vec<ResolvedLevel>,
    /// Total PEs in the accelerator.
    pub num_pes: u64,
    /// PEs actually covered by the cluster hierarchy
    /// (`Π level.num_units ≤ num_pes`).
    pub used_pes: u64,
    /// Vertical stride of the bound layer.
    pub stride_y: u64,
    /// Horizontal stride of the bound layer.
    pub stride_x: u64,
}

impl Resolved {
    /// The innermost (PE) level. [`resolve`] always produces at least one
    /// level, so this is `Some` for any resolver output.
    pub fn innermost(&self) -> Option<&ResolvedLevel> {
        self.levels.last()
    }

    /// Stride along `d` (1 except for Y/X).
    pub fn stride(&self, d: Dim) -> u64 {
        match d {
            Dim::Y => self.stride_y,
            Dim::X => self.stride_x,
            _ => 1,
        }
    }
}

/// Errors produced while resolving a dataflow against a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// A map size evaluated to zero.
    ZeroSize(Dim),
    /// A map offset evaluated to zero.
    ZeroOffset(Dim),
    /// The same dimension is mapped twice within one cluster level.
    DuplicateDim(Dim),
    /// A cluster size evaluated to zero.
    ZeroClusterSize,
    /// A cluster level would have zero units (cluster size exceeds the
    /// available sub-units).
    ClusterTooLarge {
        /// The offending cluster size.
        cluster: u64,
        /// Units available to subdivide.
        available: u64,
    },
    /// The dataflow has no PEs to map onto.
    NoPes,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::ZeroSize(d) => write!(f, "map size for {d} evaluates to zero"),
            ResolveError::ZeroOffset(d) => write!(f, "map offset for {d} evaluates to zero"),
            ResolveError::DuplicateDim(d) => {
                write!(
                    f,
                    "dimension {d} is mapped more than once in a cluster level"
                )
            }
            ResolveError::ZeroClusterSize => write!(f, "cluster size evaluates to zero"),
            ResolveError::ClusterTooLarge { cluster, available } => write!(
                f,
                "cluster size {cluster} exceeds the {available} available sub-units"
            ),
            ResolveError::NoPes => write!(f, "accelerator has zero PEs"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Resolve `dataflow` for `layer` on an accelerator with `num_pes` PEs.
///
/// # Errors
///
/// Returns a [`ResolveError`] when the dataflow is structurally invalid
/// for this layer/PE combination (zero sizes or offsets, duplicate maps,
/// oversized clusters).
pub fn resolve(dataflow: &Dataflow, layer: &Layer, num_pes: u64) -> Result<Resolved, ResolveError> {
    if num_pes == 0 {
        return Err(ResolveError::NoPes);
    }
    let mut layer_dims = layer.dims.sizes();
    // A dimension no tensor of this layer indexes (e.g. K for depthwise,
    // Y/X/R/S for a GEMM coupling) has no data axis to tile: iterating it
    // would replicate identical work. Clamp its extent to one trip so maps
    // over uncoupled dims degenerate instead of multiplying the schedule.
    let coupling = layer.coupling();
    for d in ALL_DIMS {
        let coupled = coupling.input.contains(d)
            || coupling.weight.contains(d)
            || coupling.output.contains(d);
        if !coupled {
            layer_dims.set(d, 1);
        }
    }

    // Cluster sizes, each evaluated once, in one pass that also gives
    // every level its unit count: level 0 divides the PEs into clusters of
    // the first cluster size; level i divides cluster i-1 into clusters of
    // cluster i; the innermost level's units are its cluster size. Any zero
    // size is reported before the first misfit, and both before any map is
    // resolved.
    let directives = dataflow.directives();
    let mut levels = Vec::with_capacity(dataflow.num_levels());
    let mut zero = false;
    let mut misfit = None;
    let mut available = num_pes;
    for d in directives {
        let Directive::Cluster(sz) = d else {
            continue;
        };
        let c = sz.eval(&layer_dims);
        zero |= c == 0;
        if misfit.is_none() && c > available {
            misfit = Some(ResolveError::ClusterTooLarge {
                cluster: c,
                available,
            });
        }
        // A zero or misfit size pushes a level that the errors below
        // discard; its maps and dims are filled in once they all pass.
        levels.push(ResolvedLevel {
            maps: Vec::new(),
            num_units: available.checked_div(c).unwrap_or(0),
            dims: layer_dims,
        });
        available = c;
    }
    if zero {
        return Err(ResolveError::ZeroClusterSize);
    }
    if let Some(e) = misfit {
        return Err(e);
    }
    levels.push(ResolvedLevel {
        maps: Vec::new(),
        num_units: available,
        dims: layer_dims,
    });

    // Resolve each level's maps top-down, threading dimension sizes.
    let mut dims = layer_dims;
    let level_dirs = directives.split(|d| matches!(d, Directive::Cluster(_)));
    for (level, dirs) in levels.iter_mut().zip(level_dirs) {
        let mut maps: Vec<ResolvedMap> = Vec::with_capacity(ALL_DIMS.len());
        let mut mapped = DimSet::empty();
        for d in dirs {
            let (kind, size, offset, dim) = match d {
                Directive::SpatialMap { size, offset, dim } => {
                    (MapKind::Spatial, size, offset, *dim)
                }
                Directive::TemporalMap { size, offset, dim } => {
                    (MapKind::Temporal, size, offset, *dim)
                }
                Directive::Cluster(_) => unreachable!("clusters split levels"),
            };
            if mapped.contains(dim) {
                return Err(ResolveError::DuplicateDim(dim));
            }
            mapped.insert(dim);
            // Sizes are evaluated against the *layer* dims so `Sz(R)` means
            // the same thing at every level, then clamped to this level.
            let size = size.eval(&layer_dims);
            let offset = offset.eval(&layer_dims);
            if size == 0 {
                return Err(ResolveError::ZeroSize(dim));
            }
            if offset == 0 {
                return Err(ResolveError::ZeroOffset(dim));
            }
            maps.push(ResolvedMap {
                kind,
                dim,
                size: size.min(dims.get(dim)),
                offset,
                inferred: false,
            });
        }
        // Inferred full-coverage maps for unmapped dimensions (innermost).
        for dim in ALL_DIMS {
            if !mapped.contains(dim) {
                let sz = dims.get(dim);
                maps.push(ResolvedMap {
                    kind: MapKind::Temporal,
                    dim,
                    size: sz,
                    offset: sz,
                    inferred: true,
                });
            }
        }
        level.maps = maps;
        level.dims = dims;
        dims = level.mapped_sizes();
    }

    let used_pes = levels.iter().map(|l| l.num_units).product();
    Ok(Resolved {
        levels,
        num_pes,
        used_pes,
        stride_y: layer.dims.stride_y,
        stride_x: layer.dims.stride_x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directive::SizeExpr;
    use maestro_dnn::{LayerDims, Operator};

    fn toy_layer() -> Layer {
        Layer::new("t", Operator::conv2d(), LayerDims::square(1, 4, 6, 8, 3))
    }

    #[test]
    fn single_level_resolution() {
        let df = Dataflow::builder("os")
            .spatial(SizeExpr::size(Dim::S), 1, Dim::X)
            .temporal(SizeExpr::size(Dim::S), SizeExpr::size(Dim::S), Dim::S)
            .build();
        let r = resolve(&df, &toy_layer(), 16).unwrap();
        assert_eq!(r.levels.len(), 1);
        let l = &r.levels[0];
        assert_eq!(l.num_units, 16);
        assert_eq!(l.map(Dim::X).unwrap().size, 3);
        assert_eq!(l.map(Dim::X).unwrap().kind, MapKind::Spatial);
        // All 7 dims present; unmapped are inferred full coverage.
        assert_eq!(l.maps.len(), 7);
        let k = l.map(Dim::K).unwrap();
        assert!(k.inferred);
        assert_eq!(k.size, 4);
        assert_eq!(k.offset, 4);
    }

    #[test]
    fn cluster_unit_arithmetic() {
        let df = Dataflow::builder("two")
            .spatial(1, 1, Dim::K)
            .cluster(SizeExpr::lit(8))
            .spatial(1, 1, Dim::C)
            .build();
        let r = resolve(&df, &toy_layer(), 64).unwrap();
        assert_eq!(r.levels.len(), 2);
        assert_eq!(r.levels[0].num_units, 8, "64 PEs / clusters of 8");
        assert_eq!(r.levels[1].num_units, 8, "8 PEs per cluster");
        assert_eq!(r.used_pes, 64);
    }

    #[test]
    fn nested_clusters() {
        let df = Dataflow::builder("three")
            .spatial(1, 1, Dim::K)
            .cluster(SizeExpr::lit(16))
            .spatial(1, 1, Dim::C)
            .cluster(SizeExpr::lit(4))
            .spatial(1, 1, Dim::X)
            .build();
        let r = resolve(&df, &toy_layer(), 64).unwrap();
        assert_eq!(r.levels.len(), 3);
        assert_eq!(r.levels[0].num_units, 4); // 64 / 16
        assert_eq!(r.levels[1].num_units, 4); // 16 / 4
        assert_eq!(r.levels[2].num_units, 4); // 4
    }

    #[test]
    fn inner_level_sees_outer_chunk_sizes() {
        let df = Dataflow::builder("yx")
            .spatial(SizeExpr::size(Dim::R), 1, Dim::Y)
            .temporal(4, 4, Dim::X)
            .cluster(SizeExpr::lit(4))
            .spatial(1, 1, Dim::X)
            .build();
        let r = resolve(&df, &toy_layer(), 16).unwrap();
        let inner = &r.levels[1];
        assert_eq!(inner.dims.get(Dim::Y), 3, "outer mapped Sz(R)=3 rows");
        assert_eq!(inner.dims.get(Dim::X), 4, "outer mapped 4 columns");
        assert_eq!(
            inner.dims.get(Dim::K),
            4,
            "unmapped dims pass through whole"
        );
    }

    #[test]
    fn size_clamping() {
        let df = Dataflow::builder("clamp")
            .temporal(100, 100, Dim::C)
            .build();
        let r = resolve(&df, &toy_layer(), 4).unwrap();
        assert_eq!(r.levels[0].map(Dim::C).unwrap().size, 6);
    }

    #[test]
    fn errors() {
        let layer = toy_layer();
        let df = Dataflow::builder("z").temporal(0u64, 1, Dim::K).build();
        assert_eq!(resolve(&df, &layer, 4), Err(ResolveError::ZeroSize(Dim::K)));

        let df = Dataflow::builder("z").temporal(1, 0u64, Dim::K).build();
        assert_eq!(
            resolve(&df, &layer, 4),
            Err(ResolveError::ZeroOffset(Dim::K))
        );

        let df = Dataflow::builder("d")
            .temporal(1, 1, Dim::K)
            .spatial(1, 1, Dim::K)
            .build();
        assert_eq!(
            resolve(&df, &layer, 4),
            Err(ResolveError::DuplicateDim(Dim::K))
        );

        let df = Dataflow::builder("c")
            .spatial(1, 1, Dim::K)
            .cluster(SizeExpr::lit(32))
            .spatial(1, 1, Dim::C)
            .build();
        assert!(matches!(
            resolve(&df, &layer, 16),
            Err(ResolveError::ClusterTooLarge {
                cluster: 32,
                available: 16
            })
        ));

        let df = Dataflow::builder("p").spatial(1, 1, Dim::K).build();
        assert_eq!(resolve(&df, &layer, 0), Err(ResolveError::NoPes));
    }

    /// Every cluster is checked for a zero size, then every cluster for a
    /// fit, and only then are maps resolved, level by level.
    #[test]
    fn error_precedence() {
        let layer = toy_layer();
        let df = Dataflow::builder("fit-then-zero")
            .spatial(1, 1, Dim::K)
            .cluster(SizeExpr::lit(32))
            .spatial(1, 1, Dim::C)
            .cluster(SizeExpr::lit(0))
            .spatial(1, 1, Dim::X)
            .build();
        assert_eq!(resolve(&df, &layer, 16), Err(ResolveError::ZeroClusterSize));

        let df = Dataflow::builder("map-then-fit")
            .temporal(0u64, 1, Dim::K)
            .cluster(SizeExpr::lit(32))
            .spatial(1, 1, Dim::C)
            .build();
        assert_eq!(
            resolve(&df, &layer, 16),
            Err(ResolveError::ClusterTooLarge {
                cluster: 32,
                available: 16
            })
        );

        let df = Dataflow::builder("level-order")
            .temporal(1, 0u64, Dim::K)
            .cluster(SizeExpr::lit(4))
            .temporal(0u64, 1, Dim::C)
            .build();
        assert_eq!(
            resolve(&df, &layer, 16),
            Err(ResolveError::ZeroOffset(Dim::K))
        );

        let df = Dataflow::builder("nested-fit")
            .spatial(1, 1, Dim::K)
            .cluster(SizeExpr::lit(8))
            .spatial(1, 1, Dim::C)
            .cluster(SizeExpr::lit(16))
            .spatial(1, 1, Dim::X)
            .build();
        assert_eq!(
            resolve(&df, &layer, 16),
            Err(ResolveError::ClusterTooLarge {
                cluster: 16,
                available: 8
            })
        );
    }

    #[test]
    fn chunk_iteration() {
        let m = ResolvedMap {
            kind: MapKind::Temporal,
            dim: Dim::X,
            size: 3,
            offset: 2,
            inferred: false,
        };
        // dim size 8: starts 0,2,4, last chunk start 4 has len 3; chunks
        // cover up to index 6 then an edge chunk is needed: ceil((8-3)/2)+1=4.
        assert_eq!(m.num_chunks(8), 4);
        assert_eq!(m.chunk(0, 8), (0, 3));
        assert_eq!(m.chunk(1, 8), (2, 3));
        assert_eq!(m.chunk(3, 8), (6, 2), "edge chunk truncated");
        // Fully covered dimension: one chunk.
        assert_eq!(m.num_chunks(3), 1);
        assert_eq!(m.num_chunks(2), 1);
    }

    #[test]
    fn yr_p_style_two_spatial_maps_in_inner_level() {
        let df = Dataflow::builder("yr")
            .spatial(SizeExpr::size(Dim::R), 1, Dim::Y)
            .cluster(SizeExpr::size(Dim::R))
            .spatial(1, 1, Dim::Y)
            .spatial(1, 1, Dim::R)
            .build();
        let r = resolve(&df, &toy_layer(), 12).unwrap();
        let inner = &r.levels[1];
        assert_eq!(inner.num_units, 3);
        assert_eq!(inner.spatial_maps().count(), 2);
        assert_eq!(inner.dims.get(Dim::Y), 3);
        assert_eq!(inner.dims.get(Dim::R), 3);
    }
}
