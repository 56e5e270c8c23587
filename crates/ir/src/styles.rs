//! The dataflow styles evaluated in the paper.
//!
//! Table 3 defines five partitioning strategies, each motivated by a real
//! accelerator: C-P (no-local-reuse, DianNao-style), X-P (weight-stationary),
//! YX-P (ShiDianNao-style output-stationary), YR-P (Eyeriss-style
//! row-stationary), and KC-P (NVDLA-style weight-stationary with channel
//! parallelism). This module also provides the six 1-D convolution
//! "playground" dataflows of Figure 5 and the row-stationary example of
//! Figure 6.

use crate::dataflow::Dataflow;
use crate::directive::SizeExpr;
use maestro_dnn::Dim;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five Table 3 dataflow styles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Style {
    /// C-Partitioned: input-channel parallelism, no local reuse (NLR).
    CP,
    /// X-Partitioned: weight-stationary with column parallelism (WS).
    XP,
    /// YX-Partitioned: 2-D output parallelism, ShiDianNao-style (Shi).
    YXP,
    /// YR-Partitioned: row-stationary, Eyeriss-style (RS).
    YRP,
    /// KC-Partitioned: channel parallel weight-stationary, NVDLA-style (DLA).
    KCP,
}

impl Style {
    /// All five styles in Table 3 order.
    pub const ALL: [Style; 5] = [Style::CP, Style::XP, Style::YXP, Style::YRP, Style::KCP];

    /// The short name used in the paper's figures (NLR/WS/Shi/RS/DLA
    /// in Figure 12, C-P/X-P/... in Figure 10).
    pub const fn short_name(self) -> &'static str {
        match self {
            Style::CP => "C-P",
            Style::XP => "X-P",
            Style::YXP => "YX-P",
            Style::YRP => "YR-P",
            Style::KCP => "KC-P",
        }
    }

    /// The informal accelerator-style alias (Figure 12's axis labels).
    pub const fn alias(self) -> &'static str {
        match self {
            Style::CP => "NLR",
            Style::XP => "WS",
            Style::YXP => "Shi",
            Style::YRP => "RS",
            Style::KCP => "DLA",
        }
    }

    /// The style named `name`: its short name or its alias, in any case
    /// (`KC-P`, `kc-p`, `DLA` and `dla` all name [`Style::KCP`]).
    pub fn from_name(name: &str) -> Option<Style> {
        Style::ALL.into_iter().find(|s| {
            s.short_name().eq_ignore_ascii_case(name) || s.alias().eq_ignore_ascii_case(name)
        })
    }

    /// Construct the style's dataflow description (Table 3).
    pub fn dataflow(self) -> Dataflow {
        let sz = SizeExpr::size;
        match self {
            // Large spatial reduction, input-channel parallelism, no local
            // reuse.
            Style::CP => Dataflow::builder(self.short_name())
                .temporal(1, 1, Dim::K)
                .temporal(sz(Dim::R), 1, Dim::Y)
                .temporal(sz(Dim::S), 1, Dim::X)
                .temporal(sz(Dim::R), sz(Dim::R), Dim::R)
                .temporal(sz(Dim::S), sz(Dim::S), Dim::S)
                .spatial(1, 1, Dim::C)
                .build(),
            // Weight-stationary, input-column parallelism.
            Style::XP => Dataflow::builder(self.short_name())
                .temporal(1, 1, Dim::K)
                .temporal(1, 1, Dim::C)
                .temporal(sz(Dim::R), sz(Dim::R), Dim::R)
                .temporal(sz(Dim::S), sz(Dim::S), Dim::S)
                .temporal(sz(Dim::R), 1, Dim::Y)
                .spatial(sz(Dim::S), 1, Dim::X)
                .build(),
            // Output-stationary over a 2-D activation tile (ShiDianNao).
            Style::YXP => Dataflow::builder(self.short_name())
                .temporal(1, 1, Dim::K)
                .spatial(sz(Dim::R), 1, Dim::Y)
                .temporal(
                    SizeExpr::lit(8).add(sz(Dim::S)).sub(SizeExpr::lit(1)),
                    8,
                    Dim::X,
                )
                .temporal(1, 1, Dim::C)
                .temporal(sz(Dim::R), sz(Dim::R), Dim::R)
                .temporal(sz(Dim::S), sz(Dim::S), Dim::S)
                .cluster(SizeExpr::lit(8))
                .spatial(sz(Dim::S), 1, Dim::X)
                .build(),
            // Row-stationary (Eyeriss): rows of inputs spatially across
            // clusters, filter rows spatially within a cluster.
            Style::YRP => Dataflow::builder(self.short_name())
                .temporal(2, 2, Dim::C)
                .temporal(2, 2, Dim::K)
                .spatial(sz(Dim::R), 1, Dim::Y)
                .temporal(sz(Dim::S), 1, Dim::X)
                .temporal(sz(Dim::R), sz(Dim::R), Dim::R)
                .temporal(sz(Dim::S), sz(Dim::S), Dim::S)
                .cluster(sz(Dim::R))
                .spatial(1, 1, Dim::Y)
                .spatial(1, 1, Dim::R)
                .build(),
            // NVDLA-style: output channels across clusters, input channels
            // within a cluster, weight-stationary.
            Style::KCP => Dataflow::builder(self.short_name())
                .spatial(1, 1, Dim::K)
                .temporal(64, 64, Dim::C)
                .temporal(sz(Dim::R), sz(Dim::R), Dim::R)
                .temporal(sz(Dim::S), sz(Dim::S), Dim::S)
                .temporal(sz(Dim::R), 1, Dim::Y)
                .temporal(sz(Dim::S), 1, Dim::X)
                .cluster(SizeExpr::lit(64))
                .spatial(1, 1, Dim::C)
                .build(),
        }
    }

    /// A one-line characterization (Table 3's right column, abridged).
    pub const fn characteristics(self) -> &'static str {
        match self {
            Style::CP => "input-channel parallelism; large spatial reduction; no local reuse",
            Style::XP => "weight-stationary; column parallelism; halo spatial reuse",
            Style::YXP => "output-stationary; 2-D activation parallelism; 2-D halo reuse",
            Style::YRP => "row-stationary; Y and S parallelism; spatial reduction in cluster",
            Style::KCP => "weight-stationary; K and C parallelism; 64-way spatial reduction",
        }
    }
}

impl fmt::Display for Style {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The six 1-D convolution playground dataflows of Figure 5 (A–F).
///
/// These operate on a 1-D convolution layer (`N=K=C=1`, `Y=R=1`), mapping
/// only `X` (via sliding windows over the output) and `S`.
pub fn playground(id: char) -> Option<Dataflow> {
    let sz = SizeExpr::size;
    let name = format!("Fig5-{id}");
    let df = match id {
        // A: output-stationary — X' spatial, S temporal.
        'A' => Dataflow::builder(name)
            .spatial(sz(Dim::S), 1, Dim::X)
            .temporal(1, 1, Dim::S)
            .build(),
        // B: weight-stationary — S temporal outer, X' spatial... order
        // swapped relative to A: S outer means weights change slowest.
        'B' => Dataflow::builder(name)
            .temporal(1, 1, Dim::S)
            .spatial(sz(Dim::S), 1, Dim::X)
            .build(),
        // C: collaborative output-stationary — S spatial, X' temporal,
        // X' outer.
        'C' => Dataflow::builder(name)
            .temporal(sz(Dim::S), 1, Dim::X)
            .spatial(1, 1, Dim::S)
            .build(),
        // D: collaborative weight-stationary — S spatial (stationary per
        // PE), X' temporal inner.
        'D' => Dataflow::builder(name)
            .spatial(1, 1, Dim::S)
            .temporal(sz(Dim::S), 1, Dim::X)
            .build(),
        // E: tiled collaborative weight-stationary — S spatial with tile
        // size 2, exposing partial temporal reuse of inputs.
        'E' => Dataflow::builder(name)
            .spatial(2, 2, Dim::S)
            .temporal(sz(Dim::S), 1, Dim::X)
            .build(),
        // F: clustered — X' across clusters, S within clusters
        // (the inner X' map is the inferred full window).
        'F' => Dataflow::builder(name)
            .temporal(sz(Dim::S), sz(Dim::S), Dim::S)
            .spatial(sz(Dim::S), 1, Dim::X)
            .cluster(sz(Dim::S))
            .spatial(1, 1, Dim::S)
            .build(),
        _ => return None,
    };
    Some(df)
}

/// The Figure 6 row-stationary example dataflow: a two-level hierarchy
/// with three-PE clusters, for the Figure 1 layer (K4 C6 Y8 X8 R3 S3).
pub fn figure6_row_stationary() -> Dataflow {
    let sz = SizeExpr::size;
    Dataflow::builder("Fig6-RS")
        .temporal(1, 1, Dim::N)
        .temporal(3, 3, Dim::C)
        .temporal(2, 2, Dim::K)
        .spatial(3, 1, Dim::Y)
        .temporal(3, 1, Dim::X)
        .temporal(sz(Dim::R), sz(Dim::R), Dim::R)
        .temporal(sz(Dim::S), sz(Dim::S), Dim::S)
        .cluster(SizeExpr::lit(3))
        .spatial(1, 1, Dim::Y)
        .spatial(1, 1, Dim::R)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve;
    use maestro_dnn::{Layer, LayerDims, Operator};

    fn vgg_conv2() -> Layer {
        Layer::new(
            "c2",
            Operator::conv2d(),
            LayerDims::square(1, 64, 64, 226, 3),
        )
    }

    #[test]
    fn all_styles_resolve_on_vgg_conv2() {
        let layer = vgg_conv2();
        for s in Style::ALL {
            let df = s.dataflow();
            let r =
                resolve(&df, &layer, 256).unwrap_or_else(|e| panic!("{s} failed to resolve: {e}"));
            assert!(!r.levels.is_empty());
            assert!(r.used_pes <= 256);
        }
    }

    #[test]
    fn style_names_and_aliases() {
        assert_eq!(Style::KCP.short_name(), "KC-P");
        assert_eq!(Style::KCP.alias(), "DLA");
        assert_eq!(Style::YRP.alias(), "RS");
        assert_eq!(Style::CP.to_string(), "C-P");
        for s in Style::ALL {
            assert!(!s.characteristics().is_empty());
        }
    }

    #[test]
    fn every_name_and_alias_finds_its_style_in_any_case() {
        let names = [
            ("C-P", "NLR", Style::CP),
            ("X-P", "WS", Style::XP),
            ("YX-P", "Shi", Style::YXP),
            ("YR-P", "RS", Style::YRP),
            ("KC-P", "DLA", Style::KCP),
        ];
        for (short, alias, style) in names {
            for name in [short, alias] {
                assert_eq!(Style::from_name(name), Some(style), "{name}");
                let lower = name.to_ascii_lowercase();
                assert_eq!(Style::from_name(&lower), Some(style), "{lower}");
                let upper = name.to_ascii_uppercase();
                assert_eq!(Style::from_name(&upper), Some(style), "{upper}");
            }
        }
        for bad in ["", "KCP", "kc", "DLA ", "KC-P-X", "rs-p"] {
            assert_eq!(Style::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn kcp_has_two_levels_with_64_wide_inner() {
        let r = resolve(&Style::KCP.dataflow(), &vgg_conv2(), 256).unwrap();
        assert_eq!(r.levels.len(), 2);
        assert_eq!(r.levels[0].num_units, 4, "256 PEs / clusters of 64");
        assert_eq!(r.levels[1].num_units, 64);
    }

    #[test]
    fn yrp_cluster_size_tracks_filter_rows() {
        let r = resolve(&Style::YRP.dataflow(), &vgg_conv2(), 256).unwrap();
        assert_eq!(r.levels[1].num_units, 3, "Cluster(Sz(R)) with R=3");
        assert_eq!(r.levels[0].num_units, 85, "floor(256/3) clusters");
        assert_eq!(r.used_pes, 255);
    }

    #[test]
    fn playground_dataflows_resolve_on_1d_conv() {
        // 1-D conv: X'=6, S=3 => X=8 (Figure 5 uses 3 PEs).
        let layer = Layer::new(
            "1d",
            Operator::conv2d(),
            LayerDims {
                n: 1,
                k: 1,
                c: 1,
                y: 1,
                x: 8,
                r: 1,
                s: 3,
                stride_y: 1,
                stride_x: 1,
            },
        );
        for id in ['A', 'B', 'C', 'D', 'E', 'F'] {
            let df = playground(id).unwrap();
            let pes = if id == 'F' { 6 } else { 3 };
            resolve(&df, &layer, pes)
                .unwrap_or_else(|e| panic!("Fig5-{id} failed to resolve: {e}"));
        }
        assert!(playground('Z').is_none());
    }

    #[test]
    fn figure6_resolves_on_figure1_layer() {
        let layer = Layer::new("fig1", Operator::conv2d(), LayerDims::square(2, 4, 6, 8, 3));
        let r = resolve(&figure6_row_stationary(), &layer, 6).unwrap();
        assert_eq!(r.levels.len(), 2);
        assert_eq!(r.levels[0].num_units, 2, "two clusters");
        assert_eq!(r.levels[1].num_units, 3, "three PEs each");
    }
}
